/**
 * @file
 * The vocabulary of a run request, declared once: the machine-parameter
 * overrides a RunRequest carries and the ordering backends it can ask
 * for, each as one static table that every codec, sweep and report
 * walks.
 *
 * MachineOverrides vary the simulated machine away from the paper's
 * fixed Figure-3 configuration. Every field uses 0 as "keep the
 * default": an all-zero MachineOverrides is the identity and
 * reproduces today's behavior bit-for-bit. Overrides cover only the
 * *memory-system* axes the design-space sweeps explore (LSQ geometry,
 * cache geometry, DRAM, operand-network rate, NACHOS comparator
 * width).
 *
 * machineFields() has one row per MachineOverrides field, in
 * declaration order — which is also the wire order, the point-id order
 * and the report order. A new machine parameter is one struct member
 * plus one row; nothing else lists the fields. A row also names the one
 * backend that reads it, if only one does: projectFor() drops what a
 * backend cannot see, so a sweep simulates each distinct machine once.
 *
 * The front half of a run (synthesis, alias pipeline, MDE insertion)
 * never reads these fields — the region cache key stays
 * machine-independent (harness/region_cache.hh) and one cached front
 * end serves every machine point of a sweep.
 */

#ifndef NACHOS_HARNESS_MACHINE_CONFIG_HH
#define NACHOS_HARNESS_MACHINE_CONFIG_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cgra/simulator.hh"

namespace nachos {

/** Per-run machine-parameter overrides (0 = keep the default). */
struct MachineOverrides
{
    uint32_t lsqBanks = 0;             ///< LsqConfig::banks
    uint32_t lsqPortsPerBank = 0;      ///< LsqConfig::portsPerBank
    uint64_t l1SizeBytes = 0;          ///< CacheConfig::sizeBytes (L1)
    uint32_t l1Assoc = 0;              ///< CacheConfig::assoc (L1)
    uint32_t l1LineBytes = 0;          ///< CacheConfig::lineBytes (L1)
    uint32_t l1Ports = 0;              ///< CacheConfig::ports (L1)
    uint64_t llcSizeBytes = 0;         ///< CacheConfig::sizeBytes (LLC)
    uint32_t dramLatency = 0;          ///< HierarchyConfig::dramLatency
    uint32_t dramRequestsPerCycle = 0; ///< DRAM issue bandwidth
    uint32_t netHopsPerCycle = 0;      ///< NetworkConfig::hopsPerCycle
    uint32_t nachosComparesPerCycle = 0; ///< comparator arbiter width

    bool operator==(const MachineOverrides &) const = default;

    /** True iff at least one field overrides its default. */
    bool any() const;

    /** Apply every set field onto `sim` (unset fields untouched). */
    void applyTo(SimConfig &sim) const;
};

/** Read/write access to one integer field of `T`, widened to 64 bits. */
template <class T>
struct FieldAccess
{
    uint64_t (*get)(const T &);
    void (*set)(T &, uint64_t); ///< truncates to the field's width
};

/** One machine parameter: a MachineOverrides slot and its rules. */
struct MachineField
{
    const char *name; ///< wire member, sweep axis and point-id key
    uint64_t max;     ///< largest accepted value
    bool powerOfTwo;  ///< the value must be a power of two
    FieldAccess<MachineOverrides> slot; ///< the override (0 = unset)
    FieldAccess<SimConfig> sim;         ///< the field the override sets
    /** The only backend that reads the field; empty = every backend. */
    std::optional<BackendKind> onlyFor = std::nullopt;

    /** The Figure-3 value (what an unset slot means). */
    uint64_t defaultValue() const;

    /**
     * Empty if `value` obeys this field's rules (0, "unset", always
     * does), else why not.
     */
    std::string reject(uint64_t value) const;
};

/** One row per MachineOverrides field, in declaration order. */
std::span<const MachineField> machineFields();

/** The row named `name`, or nullptr. */
const MachineField *findMachineField(std::string_view name);

/**
 * "name=value" for every set field, in table order, space-separated;
 * empty for the default machine. The machine part of a sweep point's
 * id and of its report label.
 */
std::string machineCoordinates(const MachineOverrides &m);

/**
 * `m` as `backend` sees it: every field the backend does not read
 * (MachineField::onlyFor) and every field set to its Figure-3 default
 * is unset. Both reach the SimConfig unchanged, so a backend simulates
 * `m` and projectFor(m, backend) identically.
 */
MachineOverrides projectFor(const MachineOverrides &m, BackendKind backend);

/**
 * Validate overrides against the machine model's constraints: every
 * set field within its row's rules, and the *effective* cache
 * geometries (overrides merged onto defaults) holding at least one
 * set. Returns an empty string when valid, else a human-readable
 * message — the codec turns it into a typed `bad_machine` error.
 */
std::string validateMachineOverrides(const MachineOverrides &m);

struct RunRequest;
struct BackendResults;
struct OutcomeSummary;
struct SimSummary;

/**
 * One ordering backend: its wire name and, as member pointers, the
 * RunRequest flag that asks for it and the slots its result lands in.
 */
struct BackendField
{
    BackendKind kind;
    const char *name; ///< wire name in requests, outcomes and sweeps
    bool RunRequest::*run;
    std::optional<SimResult> BackendResults::*result;
    std::optional<SimSummary> OutcomeSummary::*summary;
};

/** One row per BackendKind, in wire order (OPT-LSQ, NACHOS-SW, NACHOS). */
std::span<const BackendField> backendFields();

/** The row named `name`, or nullptr. */
const BackendField *findBackend(std::string_view name);

/** Every backend's wire name, in table order. */
std::vector<std::string> backendNames();

/** The wire names joined with '|', for error messages. */
std::string backendNameList();

} // namespace nachos

#endif // NACHOS_HARNESS_MACHINE_CONFIG_HH
