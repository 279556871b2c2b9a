#include "harness/machine_config.hh"

#include <bit>
#include <type_traits>

#include "harness/run_json.hh"

namespace nachos {

namespace {

/** FieldAccess to `t.*P1.*P2...` for a member-pointer path. */
template <class T, auto... Path>
constexpr FieldAccess<T> fieldAt = {
    [](const T &t) -> uint64_t { return (t .* ... .* Path); },
    [](T &t, uint64_t v) {
        auto &field = (t .* ... .* Path);
        field = static_cast<std::remove_reference_t<decltype(field)>>(v);
    },
};

template <auto Slot>
constexpr FieldAccess<MachineOverrides> slotAt =
    fieldAt<MachineOverrides, Slot>;

template <auto... Path>
constexpr FieldAccess<SimConfig> simAt = fieldAt<SimConfig, Path...>;

template <auto Field>
constexpr FieldAccess<SimConfig> l1At =
    fieldAt<SimConfig, &SimConfig::mem, &HierarchyConfig::l1, Field>;

using MO = MachineOverrides;
using LC = LsqConfig;
using HC = HierarchyConfig;
using CC = CacheConfig;

// Caps bound a job's memory and run time; 0 ("unset") is never a
// value here — the codec rejects an explicit zero before it reaches a
// slot (a zero would silently decode back to "default").
// onlyFor: LsqConfig reaches only LsqBackend, and MdeBackend binds MAY
// stations (the comparator arbiters) only for NACHOS.
const MachineField kMachineFields[] = {
    {"lsqBanks", 64, false, slotAt<&MO::lsqBanks>,
     simAt<&SimConfig::lsq, &LC::banks>, BackendKind::OptLsq},
    {"lsqPortsPerBank", 64, false, slotAt<&MO::lsqPortsPerBank>,
     simAt<&SimConfig::lsq, &LC::portsPerBank>, BackendKind::OptLsq},
    {"l1SizeBytes", 1ull << 30, false, slotAt<&MO::l1SizeBytes>,
     l1At<&CC::sizeBytes>},
    {"l1Assoc", 64, false, slotAt<&MO::l1Assoc>, l1At<&CC::assoc>},
    {"l1LineBytes", 4096, true, slotAt<&MO::l1LineBytes>,
     l1At<&CC::lineBytes>},
    {"l1Ports", 64, false, slotAt<&MO::l1Ports>, l1At<&CC::ports>},
    {"llcSizeBytes", 1ull << 32, false, slotAt<&MO::llcSizeBytes>,
     simAt<&SimConfig::mem, &HC::llc, &CC::sizeBytes>},
    {"dramLatency", 1'000'000, false, slotAt<&MO::dramLatency>,
     simAt<&SimConfig::mem, &HC::dramLatency>},
    {"dramRequestsPerCycle", 1024, false,
     slotAt<&MO::dramRequestsPerCycle>,
     simAt<&SimConfig::mem, &HC::dramRequestsPerCycle>},
    {"netHopsPerCycle", 1024, false, slotAt<&MO::netHopsPerCycle>,
     simAt<&SimConfig::net, &NetworkConfig::hopsPerCycle>},
    {"nachosComparesPerCycle", 1024, false,
     slotAt<&MO::nachosComparesPerCycle>,
     simAt<&SimConfig::nachosComparesPerCycle>, BackendKind::Nachos},
};

const BackendField kBackendFields[] = {
    {BackendKind::OptLsq, "lsq", &RunRequest::runLsq,
     &BackendResults::lsq, &OutcomeSummary::lsq},
    {BackendKind::NachosSw, "sw", &RunRequest::runSw,
     &BackendResults::sw, &OutcomeSummary::sw},
    {BackendKind::Nachos, "nachos", &RunRequest::runNachos,
     &BackendResults::nachos, &OutcomeSummary::nachos},
};

/** Empty if `c` holds a whole, non-zero number of sets. */
std::string
rejectGeometry(const CacheConfig &c, const char *level)
{
    const uint64_t setBytes =
        static_cast<uint64_t>(c.assoc) * c.lineBytes;
    if (c.sizeBytes < setBytes)
        return std::string("effective ") + level +
               " geometry has zero sets (sizeBytes < assoc * lineBytes)";
    if (c.sizeBytes % setBytes)
        return std::string("effective ") + level +
               " sizeBytes is not a multiple of assoc * lineBytes";
    return {};
}

} // namespace

uint64_t
MachineField::defaultValue() const
{
    // Read off a default-constructed SimConfig so the default can never
    // drift from the Figure-3 machine the code defines.
    static const SimConfig defaults;
    return sim.get(defaults);
}

std::string
MachineField::reject(uint64_t value) const
{
    if (powerOfTwo && value && !std::has_single_bit(value))
        return std::string(name) + " must be a power of two";
    if (value > max)
        return std::string(name) + " exceeds the " +
               std::to_string(max) + " cap";
    return {};
}

std::span<const MachineField>
machineFields()
{
    return kMachineFields;
}

const MachineField *
findMachineField(std::string_view name)
{
    for (const MachineField &f : kMachineFields)
        if (name == f.name)
            return &f;
    return nullptr;
}

std::string
machineCoordinates(const MachineOverrides &m)
{
    std::string text;
    for (const MachineField &f : kMachineFields) {
        const uint64_t value = f.slot.get(m);
        if (!value)
            continue;
        if (!text.empty())
            text += ' ';
        text += f.name;
        text += '=';
        text += std::to_string(value);
    }
    return text;
}

MachineOverrides
projectFor(const MachineOverrides &m, BackendKind backend)
{
    MachineOverrides projected = m;
    for (const MachineField &f : kMachineFields) {
        const uint64_t value = f.slot.get(m);
        if ((f.onlyFor && *f.onlyFor != backend) ||
            value == f.defaultValue())
            f.slot.set(projected, 0);
    }
    return projected;
}

bool
MachineOverrides::any() const
{
    return *this != MachineOverrides{};
}

void
MachineOverrides::applyTo(SimConfig &sim) const
{
    for (const MachineField &f : kMachineFields)
        if (const uint64_t value = f.slot.get(*this))
            f.sim.set(sim, value);
}

std::string
validateMachineOverrides(const MachineOverrides &m)
{
    for (const MachineField &f : kMachineFields)
        if (std::string bad = f.reject(f.slot.get(m)); !bad.empty())
            return bad;

    // Effective-geometry checks: overrides merge onto the Figure-3
    // defaults, so a size override must stay consistent with whatever
    // associativity/line size ends up in force (and vice versa).
    SimConfig sim;
    m.applyTo(sim);
    std::string bad = rejectGeometry(sim.mem.l1, "L1");
    if (!bad.empty())
        return bad;
    return rejectGeometry(sim.mem.llc, "LLC");
}

std::span<const BackendField>
backendFields()
{
    return kBackendFields;
}

const BackendField *
findBackend(std::string_view name)
{
    for (const BackendField &b : kBackendFields)
        if (name == b.name)
            return &b;
    return nullptr;
}

std::vector<std::string>
backendNames()
{
    std::vector<std::string> names;
    for (const BackendField &b : kBackendFields)
        names.push_back(b.name);
    return names;
}

std::string
backendNameList()
{
    std::string list;
    for (const BackendField &b : kBackendFields) {
        if (!list.empty())
            list += '|';
        list += b.name;
    }
    return list;
}

} // namespace nachos
