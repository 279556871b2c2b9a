/**
 * @file
 * Blocking nachosd client: one connected stream socket plus a line
 * reader and id-matched response lookup. Shared by the nachos_client
 * CLI, the service tests, and the throughput bench — anything that
 * needs to talk to a daemon without reimplementing framing.
 *
 * Responses to pipelined requests can arrive out of order; waitFor()
 * stashes non-matching responses so interleaved callers on the same
 * connection still see theirs.
 */

#ifndef NACHOS_SERVICE_CLIENT_HH
#define NACHOS_SERVICE_CLIENT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/json.hh"

namespace nachos {

class ServiceClient
{
  public:
    /** Connect to a Unix-domain socket; nullptr + *error on failure. */
    static std::unique_ptr<ServiceClient>
    connectUnix(const std::string &path, std::string *error = nullptr);

    /** Connect to a TCP endpoint (numeric host, e.g. "127.0.0.1"). */
    static std::unique_ptr<ServiceClient>
    connectTcp(const std::string &host, uint16_t port,
               std::string *error = nullptr);

    ~ServiceClient();
    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /**
     * Send bytes verbatim — framed request lines or fuzz input; false
     * on socket error.
     */
    bool sendRaw(const std::string &bytes);

    /** Send one request value as a JSON line. */
    bool sendRequest(const JsonValue &request);

    /** Next response line, blocking; nullopt on EOF/error. */
    std::optional<std::string> readLine();

    /** Next response, parsed; nullopt on EOF or unparseable line. */
    std::optional<JsonValue> readResponse();

    /**
     * Block until the response whose "id" equals `id` arrives.
     * Responses for other ids seen meanwhile are buffered for later
     * waitFor() calls. nullopt on EOF.
     */
    std::optional<JsonValue> waitFor(uint64_t id);

    /** sendRequest + waitFor(request.id). */
    std::optional<JsonValue> call(const JsonValue &request);

  private:
    explicit ServiceClient(int fd) : fd_(fd) {}

    int fd_;
    std::string buffer_;
    std::vector<JsonValue> pending_;
};

} // namespace nachos

#endif // NACHOS_SERVICE_CLIENT_HH
