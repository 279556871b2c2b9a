/**
 * @file
 * Declarative design-space sweep specifications. A sweep spec names a
 * set of machine axes (MachineOverrides fields crossed over value
 * lists), the workloads/paths/seeds/backends to evaluate them on, and
 * optional cross-axis constraint filters; expandSweep() turns it into
 * the deterministic, fully-enumerated list of sweep points the
 * orchestrator executes.
 *
 * Spec JSON (strict — unknown members are rejected, like every codec
 * in this repo):
 *
 *   {"name": "headline",
 *    "workloads": ["183.equake", "181.mcf"],
 *    "paths": [0, 1],                  // optional, default [0]
 *    "seeds": [1],                     // optional, default [1]
 *    "backends": ["lsq","sw","nachos"],// optional, default all three
 *    "invocations": 20,                // optional override, 0 = keep
 *    "axes": {"lsqBanks": [1,2,4,8],   // MachineOverrides field names
 *             "l1SizeBytes": [16384, 65536, 262144]},
 *    "constraints": [                  // optional point filters
 *      {"lhs": "l1SizeBytes", "op": "le", "rhs": "llcSizeBytes"},
 *      {"lhs": "lsqBanks", "op": "le", "rhs": 8}]}
 *
 * A constraint compares one axis's value against another axis (or a
 * literal); points violating any constraint are excluded from the
 * expansion. An axis named in a constraint but absent from a point
 * evaluates as the Figure-3 default for that field.
 *
 * Expansion order is part of the format: workloads x paths x seeds x
 * backends x axes (axes in spec order, the last axis varying fastest).
 * Point ids — and therefore the result store's keys — are derived from
 * the point's own coordinates, never from its position, so editing a
 * spec (adding values, reordering axes) preserves the identity of
 * every already-computed point.
 */

#ifndef NACHOS_SWEEP_SPEC_HH
#define NACHOS_SWEEP_SPEC_HH

#include <string>
#include <vector>

#include "harness/run_json.hh"
#include "support/value_hash.hh"

namespace nachos {

/** One machine axis: a MachineOverrides field crossed over values. */
struct SweepAxis
{
    std::string field;            ///< e.g. "lsqBanks"
    std::vector<uint64_t> values; ///< non-empty, each validated
};

/** One cross-axis filter: keep the point iff `lhs op rhs` holds. */
struct SweepConstraint
{
    std::string lhs;     ///< MachineOverrides field name
    std::string op;      ///< "lt" | "le" | "eq" | "ne" | "ge" | "gt"
    std::string rhsAxis; ///< field name, when rhsIsAxis
    uint64_t rhsValue = 0;
    bool rhsIsAxis = false;
};

/** A parsed, validated sweep specification. */
struct SweepSpec
{
    std::string name;
    std::vector<const BenchmarkInfo *> workloads;
    std::vector<uint32_t> paths = {0};
    std::vector<uint64_t> seeds = {1};
    /** Backend wire names; one point is generated per entry. */
    std::vector<std::string> backends = backendNames();
    uint64_t invocations = 0; ///< 0 = each workload's default
    std::vector<SweepAxis> axes;
    std::vector<SweepConstraint> constraints;
};

/** One fully-specified evaluation point of a sweep. */
struct SweepPoint
{
    const BenchmarkInfo *info = nullptr;
    uint32_t pathIndex = 0;
    uint64_t seed = 1;
    std::string backend; ///< a BackendField wire name
    uint64_t invocations = 0;
    MachineOverrides machine;
    /**
     * Canonical id: every coordinate in a fixed order, e.g.
     * "workload=183.equake path=0 seed=1 backend=nachos inv=20
     *  lsqBanks=4 l1SizeBytes=65536" (machineCoordinates: set fields
     * only, in table order). The store keys records by fnv1a64(id).
     */
    std::string id;
    uint64_t hash = 0;

    /** The RunRequest this point denotes (exactly one backend set). */
    RunRequest toRequest() const;

    /**
     * The id of the run this point's backend actually simulates: the
     * invocation count resolved and the machine projected
     * (projectFor). Two points with one projected id have one result.
     */
    std::string projectedId() const;
};

/**
 * Decode and validate a sweep spec. Strict: unknown members, unknown
 * axis or constraint fields, empty value lists, out-of-range values
 * (via validateMachineOverrides per single-field probe), unknown
 * workloads/backends, and pathIndex > kMaxPathIndex all fail with a
 * typed error ("bad_sweep" unless a more specific code applies).
 */
bool decodeSweepSpec(const JsonValue &v, SweepSpec &spec,
                     CodecError &err);

/**
 * Enumerate every point of the spec, in the documented deterministic
 * order, with constraint-violating points filtered out. Points whose
 * combined overrides fail validateMachineOverrides (infeasible
 * cross-product corners, e.g. a tiny L1 size crossed with a huge line
 * size) are also skipped — each single axis value was already
 * validated at decode time, so only combinations can be infeasible.
 * Ids and hashes are filled in.
 */
std::vector<SweepPoint> expandSweep(const SweepSpec &spec);

} // namespace nachos

#endif // NACHOS_SWEEP_SPEC_HH
