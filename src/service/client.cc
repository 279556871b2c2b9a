#include "service/client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace nachos {

namespace {

void
setError(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
}

} // namespace

std::unique_ptr<ServiceClient>
ServiceClient::connectUnix(const std::string &path, std::string *error)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        setError(error, "socket path too long: " + path);
        return nullptr;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        setError(error, std::string("socket: ") + std::strerror(errno));
        return nullptr;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        setError(error,
                 "connect " + path + ": " + std::strerror(errno));
        ::close(fd);
        return nullptr;
    }
    return std::unique_ptr<ServiceClient>(new ServiceClient(fd));
}

std::unique_ptr<ServiceClient>
ServiceClient::connectTcp(const std::string &host, uint16_t port,
                          std::string *error)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        setError(error, "invalid IPv4 address '" + host + "'");
        return nullptr;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        setError(error, std::string("socket: ") + std::strerror(errno));
        return nullptr;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        setError(error, "connect " + host + ":" +
                            std::to_string(port) + ": " +
                            std::strerror(errno));
        ::close(fd);
        return nullptr;
    }
    return std::unique_ptr<ServiceClient>(new ServiceClient(fd));
}

ServiceClient::~ServiceClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
ServiceClient::sendRaw(const std::string &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd_, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

bool
ServiceClient::sendRequest(const JsonValue &request)
{
    return sendRaw(dumpJson(request) + "\n");
}

std::optional<std::string>
ServiceClient::readLine()
{
    char chunk[4096];
    while (true) {
        const size_t pos = buffer_.find('\n');
        if (pos != std::string::npos) {
            std::string line = buffer_.substr(0, pos);
            buffer_.erase(0, pos + 1);
            return line;
        }
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return std::nullopt;
        buffer_.append(chunk, static_cast<size_t>(n));
    }
}

std::optional<JsonValue>
ServiceClient::readResponse()
{
    std::optional<std::string> line = readLine();
    if (!line)
        return std::nullopt;
    JsonValue response;
    if (!parseJson(*line, response).ok)
        return std::nullopt;
    return response;
}

std::optional<JsonValue>
ServiceClient::waitFor(uint64_t id)
{
    for (size_t i = 0; i < pending_.size(); ++i) {
        const JsonValue *vid = pending_[i].find("id");
        if (vid && vid->isU64() && vid->asU64() == id) {
            JsonValue v = std::move(pending_[i]);
            pending_.erase(pending_.begin() +
                           static_cast<ptrdiff_t>(i));
            return v;
        }
    }
    while (true) {
        std::optional<JsonValue> response = readResponse();
        if (!response)
            return std::nullopt;
        const JsonValue *vid = response->find("id");
        if (vid && vid->isU64() && vid->asU64() == id)
            return response;
        pending_.push_back(std::move(*response));
    }
}

std::optional<JsonValue>
ServiceClient::call(const JsonValue &request)
{
    const JsonValue *id = request.find("id");
    if (!id || !id->isU64() || !sendRequest(request))
        return std::nullopt;
    return waitFor(id->asU64());
}

} // namespace nachos
