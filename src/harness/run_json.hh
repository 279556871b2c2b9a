/**
 * @file
 * JSON (de)serialization of the harness request/result types — the one
 * encoding path shared by the `nachosd` daemon, the `nachos_client`
 * CLI and the sweep store, so the JSON surfaces cannot drift apart.
 * Each record has exactly one member list: its JsonWriter function
 * (write*). Callers that want a tree parse those bytes back
 * (encodeOutcome), so no second encoder exists to fall out of step.
 *
 * Decoding validates strictly and reports typed errors instead of
 * panicking: the daemon feeds it bytes straight off a socket, so an
 * unknown workload name, an out-of-range pathIndex, a zero seed, or a
 * wrong-typed field must come back as a (code, message) pair the
 * protocol layer can turn into an error response — never a crash.
 */

#ifndef NACHOS_HARNESS_RUN_JSON_HH
#define NACHOS_HARNESS_RUN_JSON_HH

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "harness/runner.hh"
#include "support/json.hh"

namespace nachos {

/** A structured (de)coding error: stable code + human message. */
struct CodecError
{
    std::string code;    ///< e.g. "unknown_workload", "bad_request"
    std::string message; ///< what exactly was wrong
};

// ---- decoder helpers ------------------------------------------------
// Shared by every strict decoder: the request and outcome codecs here,
// the protocol envelope (`bad_request`), the sweep spec (`bad_sweep`)
// and the sweep store (`bad_record`). Each caller passes its own code.

/** Fill `err` and return false: every decoder's failure path. */
bool failCodec(CodecError &err, std::string code, std::string message);

/**
 * Strict decoding: fail as `code` with "unknown <noun> 'name'" on the
 * first member of `v` for which `known(name)` is false.
 */
template <class Known>
bool
checkMembers(const JsonValue &v, Known known, CodecError &err,
             const char *code, std::string_view noun = "member")
{
    for (const auto &member : v.members())
        if (!known(std::string_view(member.first)))
            return failCodec(err, code,
                             "unknown " + std::string(noun) + " '" +
                                 member.first + "'");
    return true;
}

/** As above, for the members named in `allowed`. */
bool checkMembers(const JsonValue &v,
                  std::initializer_list<std::string_view> allowed,
                  CodecError &err, const char *code,
                  std::string_view noun = "member");

/**
 * Required member readers: fail as `code` unless member `name` is
 * present with the right type ("'name' must be a non-negative
 * integer", "... a number", "... a non-empty string").
 */
bool readU64(const JsonValue &v, const char *name, uint64_t &out,
             CodecError &err, const char *code);
bool readNumber(const JsonValue &v, const char *name, double &out,
                CodecError &err, const char *code);
bool readString(const JsonValue &v, const char *name, std::string &out,
                CodecError &err, const char *code);

/** Optional: an absent member leaves `out` as it was. */
bool readOptionalU64(const JsonValue &v, const char *name,
                     uint64_t &out, CodecError &err, const char *code);

/** Highest pathIndex a request may name (the paper's top-5 paths). */
constexpr uint32_t kMaxPathIndex = 4;

/** Largest accepted invocations override (keeps jobs bounded). */
constexpr uint64_t kMaxInvocationsOverride = 10'000'000;

/**
 * Admission class of a run request. Interactive jobs (the default)
 * get their own bounded ring in the daemon's queue and are claimed
 * first; bulk jobs accept higher queueing delay, so a bulk sweep
 * cannot starve interactive admission.
 */
enum class AdmitClass : uint8_t { Interactive, Bulk };

/** A validated run request: the workload plus what to run on it. */
struct JobSpec
{
    const BenchmarkInfo *info = nullptr;
    RunRequest request;
    /** Per-job deadline in milliseconds; 0 = daemon default. */
    uint64_t timeoutMillis = 0;
    /**
     * Artificial pre-run delay (capped at 60 s) for tests and load
     * benches that need a job of a known duration.
     */
    uint64_t sleepMillis = 0;
    /** Admission class ("class": "interactive" | "bulk"). */
    AdmitClass klass = AdmitClass::Interactive;
};

/**
 * Decode a machine-override object (every member optional, positive):
 *
 *   {"lsqBanks": 4, "lsqPortsPerBank": 4,
 *    "l1SizeBytes": 65536, "l1Assoc": 4, "l1LineBytes": 64,
 *    "l1Ports": 4, "llcSizeBytes": 4194304,
 *    "dramLatency": 200, "dramRequestsPerCycle": 4,
 *    "netHopsPerCycle": 4, "nachosComparesPerCycle": 1}
 *
 * Strict: unknown members are rejected (`bad_request`); a present
 * member that is zero, non-integer, overflowing, or violating the
 * machine model's constraints (validateMachineOverrides — e.g.
 * `l1Assoc: 0` or a non-power-of-two `l1LineBytes`) fails with the
 * stable code `bad_machine`. `out` is fully reset first, so reusing a
 * decode target never leaks stale overrides.
 */
bool decodeMachineOverrides(const JsonValue &v, MachineOverrides &out,
                            CodecError &err);

/** Inverse of decodeMachineOverrides: only set fields are written, in
 *  a fixed member order, so encoding is canonical and round-trips. */
void writeMachineOverrides(JsonWriter &w, const MachineOverrides &m);

/**
 * Decode a run-request object:
 *
 *   {"workload": "164.gzip",        // required; full or short name
 *    "pathIndex": 0,                // optional, 0..4
 *    "seed": 1,                     // optional, positive integer
 *    "backends": ["lsq","sw","nachos"],  // optional, non-empty
 *    "pipeline": {"stage2":true,"stage3":true,"stage4":true},
 *    "invocations": 0,              // optional override, 0 = keep
 *    "machine": {...},              // optional machine overrides
 *    "timeoutMillis": 0,            // optional per-job deadline
 *    "sleepMillis": 0,              // optional test delay
 *    "class": "bulk"}               // optional, interactive|bulk
 *
 * Unknown members are rejected (strict: a typoed field should fail
 * loudly, not silently run defaults). Returns false and fills `err`
 * on any violation.
 */
bool decodeRunRequest(const JsonValue &v, JobSpec &spec,
                      CodecError &err);

/** Inverse of decodeRunRequest (always round-trips). */
void writeRunRequest(JsonWriter &w, const JobSpec &spec);

/** Per-backend scalar summary of a SimResult. */
struct SimSummary
{
    uint64_t cycles = 0;
    double cyclesPerInvocation = 0;
    uint64_t maxMlp = 0;
    double avgMlp = 0;
    uint64_t loadValueDigest = 0;
    double energyTotal = 0;

    bool operator==(const SimSummary &) const = default;
};

/**
 * SimSummary's members, in the fixed order above, written into an open
 * object: the body of an outcome's backend summary and part of a sweep
 * store line.
 */
void writeSimSummaryMembers(JsonWriter &w, const SimSummary &s);

/** Inverse of writeSimSummaryMembers: every member is required, and a
 *  failure carries `code`. Other members of `v` are not looked at. */
bool readSimSummaryMembers(const JsonValue &v, SimSummary &s,
                           CodecError &err, const char *code);

/** True when `name` is one of SimSummary's members. */
bool isSimSummaryMember(std::string_view name);

/** The wire-level view of a RunOutcome (regions stay server-side). */
struct OutcomeSummary
{
    std::string workload;
    uint32_t pathIndex = 0;
    uint64_t seed = 0;
    uint64_t invocations = 0;
    PairCounts labels;   ///< final labels over all relevant pairs
    PairCounts enforced; ///< final labels over enforced pairs
    uint64_t mdeOrder = 0;
    uint64_t mdeForward = 0;
    uint64_t mdeMay = 0;
    std::optional<SimSummary> lsq;
    std::optional<SimSummary> sw;
    std::optional<SimSummary> nachos;
};

/** Collapse a RunOutcome to its wire summary. */
OutcomeSummary summarizeOutcome(const BenchmarkInfo &info,
                                const RunRequest &request,
                                const RunOutcome &outcome);

/**
 * As above but over the outcome's parts — the daemon and the sweeps
 * hold the front end in a shared cache entry and the SimResults of
 * simulateRequest, which never live inside one RunOutcome.
 */
OutcomeSummary summarizeOutcome(const BenchmarkInfo &info,
                                const RunRequest &request,
                                const FrontEnd &front,
                                const BackendResults &sims);

/**
 * Write a summary; member order is fixed, so encoding is canonical.
 * Into a warm buffer it allocates nothing — the daemon's result path
 * (appendResultResponse).
 */
void writeOutcome(JsonWriter &w, const OutcomeSummary &summary);

/** writeOutcome's bytes as a tree, for callers that want one. */
JsonValue encodeOutcome(const OutcomeSummary &summary);

/** Strict inverse of writeOutcome. */
bool decodeOutcome(const JsonValue &v, OutcomeSummary &summary,
                   CodecError &err);

} // namespace nachos

#endif // NACHOS_HARNESS_RUN_JSON_HH
