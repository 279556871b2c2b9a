/**
 * @file
 * JSON (de)serialization of the harness request/result types — the one
 * encoding path shared by the `nachosd` daemon, the `nachos_client`
 * CLI and the sweep store, so the JSON surfaces cannot drift apart.
 *
 * Decoding validates strictly and reports typed errors instead of
 * panicking: the daemon feeds it bytes straight off a socket, so an
 * unknown workload name, an out-of-range pathIndex, a zero seed, or a
 * wrong-typed field must come back as a (code, message) pair the
 * protocol layer can turn into an error response — never a crash.
 */

#ifndef NACHOS_HARNESS_RUN_JSON_HH
#define NACHOS_HARNESS_RUN_JSON_HH

#include <optional>
#include <string>

#include "harness/runner.hh"
#include "support/json.hh"

namespace nachos {

/** A structured (de)coding error: stable code + human message. */
struct CodecError
{
    std::string code;    ///< e.g. "unknown_workload", "bad_request"
    std::string message; ///< what exactly was wrong
};

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

/** Inverse of decodeMachineOverrides: only set fields are emitted, in
 *  a fixed member order, so encoding is canonical and round-trips. */
JsonValue encodeMachineOverrides(const MachineOverrides &m);

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
 *    "sleepMillis": 0}              // optional test delay
 *
 * Unknown members are rejected (strict: a typoed field should fail
 * loudly, not silently run defaults). Returns false and fills `err`
 * on any violation.
 */
bool decodeRunRequest(const JsonValue &v, JobSpec &spec,
                      CodecError &err);

/** Inverse of decodeRunRequest (always round-trips). */
JsonValue encodeRunRequest(const JobSpec &spec);

/** Per-backend scalar summary of a SimResult. */
struct SimSummary
{
    uint64_t cycles = 0;
    double cyclesPerInvocation = 0;
    uint64_t maxMlp = 0;
    double avgMlp = 0;
    uint64_t loadValueDigest = 0;
    double energyTotal = 0;
};

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

/** Encode a summary; member order is fixed, so encoding is canonical. */
JsonValue encodeOutcome(const OutcomeSummary &summary);

/**
 * Append-encode a summary through a JsonWriter: byte-identical to
 * dumpJson(encodeOutcome(summary)) but with zero heap allocation —
 * the daemon's steady-state result path. Golden daemon-vs-direct
 * tests compare this encoding against the tree writer's.
 */
void encodeOutcomeTo(JsonWriter &w, const OutcomeSummary &summary);

/** One-call encode of a fresh RunOutcome. */
JsonValue encodeRunOutcome(const BenchmarkInfo &info,
                           const RunRequest &request,
                           const RunOutcome &outcome);

/** Strict inverse of encodeOutcome. */
bool decodeOutcome(const JsonValue &v, OutcomeSummary &summary,
                   CodecError &err);

} // namespace nachos

#endif // NACHOS_HARNESS_RUN_JSON_HH
