/**
 * @file
 * The nachosd wire protocol: versioned JSON lines over a stream
 * socket. Every request is one JSON object on one line and yields
 * exactly one response line; responses to pipelined requests may
 * arrive out of order and are matched by the client-chosen `id`.
 *
 * Requests (envelope members `v`, `id`, `type` are required):
 *
 *   {"v":1,"id":7,"type":"run","run":{"workload":"164.gzip",...}}
 *   {"v":1,"id":8,"type":"metrics"}
 *   {"v":1,"id":9,"type":"ping"}
 *   {"v":1,"id":10,"type":"cancel","target":7}
 *   {"v":1,"id":11,"type":"shutdown"}
 *
 * Responses:
 *
 *   {"v":1,"id":7,"type":"result","outcome":{...}}     (run)
 *   {"v":1,"id":8,"type":"metrics","stats":{...}}
 *   {"v":1,"id":9,"type":"pong"}
 *   {"v":1,"id":10,"type":"ok"}                        (cancel/shutdown)
 *   {"v":1,"id":N,"type":"error","code":"...","message":"..."}
 *
 * Error codes: kErrorCodes below. Malformed input of any shape gets
 * an `error` response (id 0 when the id itself was unreadable) — never
 * a dropped connection mid-protocol and never a crash.
 *
 * Every line this module writes, request or response, goes through
 * JsonWriter and starts from one envelope writer; the tree-returning
 * helpers parse those bytes back, so no second encoder exists to
 * drift.
 */

#ifndef NACHOS_SERVICE_PROTOCOL_HH
#define NACHOS_SERVICE_PROTOCOL_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "harness/run_json.hh"
#include "support/json.hh"

namespace nachos {

/** Protocol version spoken by this build. */
constexpr uint64_t kProtocolVersion = 1;

/** Longest accepted request line (bytes, newline excluded). */
constexpr size_t kMaxRequestLineBytes = 1 << 20;

/**
 * Every `code` an error response can carry. parseRequestLine (with the
 * run-payload decoder) emits bad_json .. bad_machine; the daemon adds
 * queue_full .. internal.
 */
constexpr std::array<std::string_view, 15> kErrorCodes = {
    "bad_json",       "oversized",      "unsupported_version",
    "bad_request",    "unknown_type",   "unknown_workload",
    "bad_path_index", "bad_seed",       "bad_machine",
    "queue_full",     "timeout",        "cancelled",
    "not_cancellable", "shutting_down", "internal",
};

/** A parsed, validated request. */
struct Request
{
    enum class Type : uint8_t { Run, Metrics, Ping, Cancel, Shutdown };

    Type type = Type::Ping;
    uint64_t id = 0;
    JobSpec job;               ///< Type::Run only
    uint64_t cancelTarget = 0; ///< Type::Cancel only
};

/**
 * Parse and validate one request line — the daemon's only entry. The
 * line is parsed into `tree`, which is reused in place: the daemon
 * keeps one per connection, so a warm, same-shaped request parses and
 * decodes without touching the heap. On failure returns false and
 * fills `err` with a typed error; `req.id` is still set when the id
 * was readable, so the error response can echo it.
 */
bool parseRequestLine(std::string_view line, JsonValue &tree,
                      Request &req, CodecError &err);

// ---- responses: each appends one complete line (newline excluded) ---

/** Allocation-free into a warm buffer: the serving hot path. */
void appendResultResponse(std::string &out, uint64_t id,
                          const OutcomeSummary &summary);
void appendErrorResponse(std::string &out, uint64_t id,
                         std::string_view code, std::string_view message);
void appendMetricsResponse(std::string &out, uint64_t id,
                           const JsonValue &stats);
void appendPongResponse(std::string &out, uint64_t id);
void appendOkResponse(std::string &out, uint64_t id);

// ---- requests -------------------------------------------------------

/** Append one run-request line (newline excluded). */
void appendRunRequest(std::string &out, uint64_t id, const JobSpec &spec);

/** A request envelope of the given type (no payload members). */
JsonValue requestEnvelope(uint64_t id, const char *type);

/** appendRunRequest's line as a tree. */
JsonValue runRequestEnvelope(uint64_t id, const JobSpec &spec);

} // namespace nachos

#endif // NACHOS_SERVICE_PROTOCOL_HH
