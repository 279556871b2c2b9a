#include "service/protocol.hh"

namespace nachos {

namespace {

/** Validate a parsed request tree. */
bool
parseRequest(const JsonValue &v, Request &req, CodecError &err)
{
    if (!v.isObject())
        return failCodec(err, "bad_request",
                         "request must be a JSON object");

    // Pull the id first so every later error can echo it.
    if (const JsonValue *id = v.find("id")) {
        if (!id->isU64() || id->asU64() == 0)
            return failCodec(err, "bad_request",
                             "'id' must be a positive integer");
        req.id = id->asU64();
    } else {
        return failCodec(err, "bad_request", "'id' is required");
    }

    const JsonValue *version = v.find("v");
    if (!version || !version->isU64())
        return failCodec(err, "bad_request",
                         "'v' (protocol version) is required");
    if (version->asU64() != kProtocolVersion)
        return failCodec(err, "unsupported_version",
                         "protocol version " +
                             std::to_string(version->asU64()) +
                             " not supported (want " +
                             std::to_string(kProtocolVersion) + ")");

    const JsonValue *type = v.find("type");
    if (!type || !type->isString())
        return failCodec(err, "bad_request",
                         "'type' (string) is required");

    const std::string &name = type->str();
    if (name == "run") {
        req.type = Request::Type::Run;
        if (!checkMembers(v, {"v", "id", "type", "run"}, err,
                          "bad_request"))
            return false;
        const JsonValue *run = v.find("run");
        if (!run)
            return failCodec(err, "bad_request",
                             "'run' (object) is required");
        return decodeRunRequest(*run, req.job, err);
    }

    // The payload-free types accept only the envelope (+ cancel's
    // target); anything else is a typo worth rejecting loudly.
    const bool isCancel = name == "cancel";
    const auto envelope = [isCancel](std::string_view member) {
        return member == "v" || member == "id" || member == "type" ||
               (isCancel && member == "target");
    };
    if (!checkMembers(v, envelope, err, "bad_request"))
        return false;
    if (name == "metrics") {
        req.type = Request::Type::Metrics;
        return true;
    }
    if (name == "ping") {
        req.type = Request::Type::Ping;
        return true;
    }
    if (name == "shutdown") {
        req.type = Request::Type::Shutdown;
        return true;
    }
    if (isCancel) {
        req.type = Request::Type::Cancel;
        const JsonValue *target = v.find("target");
        if (!target || !target->isU64() || target->asU64() == 0)
            return failCodec(err, "bad_request",
                             "'target' must be a positive integer");
        req.cancelTarget = target->asU64();
        return true;
    }
    return failCodec(err, "unknown_type",
                     "unknown request type '" + name + "'");
}

/**
 * Open a protocol line with its envelope — `{"v":1,"id":N,"type":T` —
 * the one place every request and response line starts. The caller
 * writes the payload members and closes the object.
 */
void
beginEnvelope(JsonWriter &w, uint64_t id, const char *type)
{
    w.beginObject();
    w.member("v", kProtocolVersion);
    w.member("id", id);
    w.member("type", type);
}

} // namespace

bool
parseRequestLine(std::string_view line, JsonValue &tree, Request &req,
                 CodecError &err)
{
    if (line.size() > kMaxRequestLineBytes)
        return failCodec(err, "oversized",
                         "request line exceeds " +
                             std::to_string(kMaxRequestLineBytes) +
                             " bytes");
    const JsonParseStatus parsed = parseJson(line, tree);
    if (!parsed.ok)
        return failCodec(err, "bad_json",
                         std::string(parsed.error) + " at offset " +
                             std::to_string(parsed.errorOffset));
    return parseRequest(tree, req, err);
}

void
appendResultResponse(std::string &out, uint64_t id,
                     const OutcomeSummary &summary)
{
    JsonWriter w(out);
    beginEnvelope(w, id, "result");
    w.key("outcome");
    writeOutcome(w, summary);
    w.endObject();
}

void
appendErrorResponse(std::string &out, uint64_t id, std::string_view code,
                    std::string_view message)
{
    JsonWriter w(out);
    beginEnvelope(w, id, "error");
    w.member("code", code);
    w.member("message", message);
    w.endObject();
}

void
appendMetricsResponse(std::string &out, uint64_t id,
                      const JsonValue &stats)
{
    JsonWriter w(out);
    beginEnvelope(w, id, "metrics");
    w.member("stats", stats);
    w.endObject();
}

void
appendPongResponse(std::string &out, uint64_t id)
{
    JsonWriter w(out);
    beginEnvelope(w, id, "pong");
    w.endObject();
}

void
appendOkResponse(std::string &out, uint64_t id)
{
    JsonWriter w(out);
    beginEnvelope(w, id, "ok");
    w.endObject();
}

void
appendRunRequest(std::string &out, uint64_t id, const JobSpec &spec)
{
    JsonWriter w(out);
    beginEnvelope(w, id, "run");
    w.key("run");
    writeRunRequest(w, spec);
    w.endObject();
}

JsonValue
requestEnvelope(uint64_t id, const char *type)
{
    std::string line;
    JsonWriter w(line);
    beginEnvelope(w, id, type);
    w.endObject();
    return parseWritten(line);
}

JsonValue
runRequestEnvelope(uint64_t id, const JobSpec &spec)
{
    std::string line;
    appendRunRequest(line, id, spec);
    return parseWritten(line);
}

} // namespace nachos
