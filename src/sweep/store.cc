#include "sweep/store.hh"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/logging.hh"

namespace nachos {

namespace {

bool
setError(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
    return false;
}

} // namespace

void
writeSweepRecord(JsonWriter &w, const SweepRecord &r)
{
    w.beginObject();
    w.member("id", r.id);
    w.member("hash", r.hash);
    w.member("workload", r.workload);
    w.member("pathIndex", r.pathIndex);
    w.member("seed", r.seed);
    w.member("backend", r.backend);
    w.member("invocations", r.invocations);
    w.key("machine");
    writeMachineOverrides(w, r.machine);
    writeSimSummaryMembers(w, r.summary);
    w.member("areaProxy", r.areaProxy);
    w.member("seconds", r.seconds);
    w.endObject();
}

JsonValue
encodeSweepRecord(const SweepRecord &r)
{
    std::string bytes;
    JsonWriter w(bytes);
    writeSweepRecord(w, r);
    return parseWritten(bytes);
}

bool
decodeSweepRecord(const JsonValue &v, SweepRecord &r, CodecError &err)
{
    const char *code = "bad_record";
    r = SweepRecord{};
    if (!v.isObject())
        return failCodec(err, code, "sweep record must be an object");
    const auto known = [](std::string_view name) {
        for (const char *own : {"id", "hash", "workload", "pathIndex",
                                "seed", "backend", "invocations",
                                "machine", "areaProxy", "seconds"})
            if (name == own)
                return true;
        return isSimSummaryMember(name);
    };
    if (!checkMembers(v, known, err, code))
        return false;
    uint64_t pathIndex = 0;
    if (!readString(v, "id", r.id, err, code) ||
        !readU64(v, "hash", r.hash, err, code) ||
        !readString(v, "workload", r.workload, err, code) ||
        !readU64(v, "pathIndex", pathIndex, err, code) ||
        !readU64(v, "seed", r.seed, err, code) ||
        !readString(v, "backend", r.backend, err, code) ||
        !readU64(v, "invocations", r.invocations, err, code))
        return false;
    r.pathIndex = static_cast<uint32_t>(pathIndex);
    const JsonValue *machine = v.find("machine");
    if (!machine)
        return failCodec(err, code, "'machine' member is required");
    return decodeMachineOverrides(*machine, r.machine, err) &&
           readSimSummaryMembers(v, r.summary, err, code) &&
           readNumber(v, "areaProxy", r.areaProxy, err, code) &&
           readNumber(v, "seconds", r.seconds, err, code);
}

SweepStore::~SweepStore() { close(); }

bool
SweepStore::load(SweepLoadResult &out, std::string *error) const
{
    out = SweepLoadResult{};
    std::ifstream in(path_, std::ios::binary);
    if (!in.is_open())
        return true; // missing store = empty store

    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    std::unordered_set<uint64_t> seen;
    JsonValue tree; // reused: every record has the same shape
    size_t lineStart = 0;
    while (lineStart < text.size()) {
        const size_t newline = text.find('\n', lineStart);
        const bool complete = newline != std::string::npos;
        const std::string line =
            text.substr(lineStart,
                        complete ? newline - lineStart
                                 : std::string::npos);
        SweepRecord record;
        bool ok = false;
        if (!line.empty()) {
            CodecError err;
            ok = parseJson(line, tree).ok &&
                 decodeSweepRecord(tree, record, err);
        }
        if (!ok) {
            // Only the final line may be torn; anything earlier is
            // corruption, not an interrupted append.
            if (complete && newline + 1 < text.size())
                return setError(error,
                                path_ + ": malformed record at byte " +
                                    std::to_string(lineStart));
            out.tornTail = true;
            out.validBytes = lineStart;
            return true;
        }
        if (!seen.insert(record.hash).second)
            return setError(error, path_ + ": duplicate point hash " +
                                       std::to_string(record.hash) +
                                       " (id '" + record.id + "')");
        out.records.push_back(std::move(record));
        if (!complete) {
            // Parsed, but the trailing newline never made it out —
            // treat the line as torn so appends restart it cleanly.
            out.records.pop_back();
            seen.erase(record.hash);
            out.tornTail = true;
            out.validBytes = lineStart;
            return true;
        }
        lineStart = newline + 1;
    }
    out.validBytes = text.size();
    return true;
}

bool
SweepStore::openForAppend(SweepLoadResult &out, std::string *error)
{
    close();
    if (!load(out, error))
        return false;
    if (out.tornTail) {
        // Truncate the torn tail so the next append starts a fresh
        // line instead of extending a half-written record.
        std::FILE *f = std::fopen(path_.c_str(), "r+b");
        if (!f)
            return setError(error, path_ + ": " + std::strerror(errno));
        const bool truncated =
            ftruncate(fileno(f),
                      static_cast<off_t>(out.validBytes)) == 0;
        std::fclose(f);
        if (!truncated)
            return setError(error,
                            path_ + ": failed to truncate torn tail");
    }
    file_ = std::fopen(path_.c_str(), "ab");
    if (!file_)
        return setError(error, path_ + ": " + std::strerror(errno));
    return true;
}

bool
SweepStore::append(const SweepRecord &record, std::string *error)
{
    NACHOS_ASSERT(file_ != nullptr, "append before openForAppend");
    std::string line;
    JsonWriter w(line);
    writeSweepRecord(w, record);
    line += '\n';
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size())
        return setError(error, path_ + ": short write");
    if (std::fflush(file_) != 0)
        return setError(error, path_ + ": flush failed");
    return true;
}

void
SweepStore::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

SweepPoint
recordedPoint(const SweepRecord &r)
{
    SweepPoint p;
    p.info = findBenchmark(r.workload);
    p.pathIndex = r.pathIndex;
    p.seed = r.seed;
    p.backend = r.backend;
    p.invocations = r.invocations;
    p.machine = r.machine;
    p.id = r.id;
    p.hash = r.hash;
    return p;
}

std::unordered_set<uint64_t>
completedHashes(const std::vector<SweepRecord> &records)
{
    std::unordered_set<uint64_t> hashes;
    hashes.reserve(records.size());
    for (const SweepRecord &r : records)
        hashes.insert(r.hash);
    return hashes;
}

} // namespace nachos
