/**
 * @file
 * The simulation counters as one static table. Each row is a counter
 * the simulator can bump: its id, its wire name ("l1.hits"), and the
 * energy category it charges, if any (energy/model). The rows are in
 * name order, so walking them is the order a name-keyed map would
 * give.
 *
 * A run's counters are a SimStats: a dense array indexed by row id
 * plus one "registered" bit per row. A component registers the rows
 * it owns when it binds to the run, and keeps `Counter *` handles into
 * the array, so bumping a counter is one increment and nothing looks
 * a name up. dump() lists only registered rows, so the set of names a
 * run reports still depends on what ran (scratchpad ops, runtime
 * forwards, comparator stations) exactly as it did when each run kept
 * a name-keyed map.
 */

#ifndef NACHOS_SUPPORT_SIM_STATS_HH
#define NACHOS_SUPPORT_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/stats.hh"

namespace nachos {

/** Row ids of the counter table, in name order. */
enum class SimCounter : uint8_t
{
    FuFpOps,
    FuIntOps,
    L1Hits,
    L1Misses,
    L1MshrMerges,
    L1MshrStalls,
    L1Reads,
    L1Writebacks,
    L1Writes,
    LlcHits,
    LlcMisses,
    LlcMshrMerges,
    LlcMshrStalls,
    LlcReads,
    LlcWritebacks,
    LlcWrites,
    LsqAllocs,
    LsqBloomHits,
    LsqBloomMisses,
    LsqBloomProbes,
    LsqCamLoads,
    LsqCamStores,
    LsqForwards,
    MdeForwards,
    MdeMayChecks,
    MdeOrderTokens,
    NachosChecksClear,
    NachosChecksConflict,
    NachosRuntimeForwards,
    NetHops,
    NetTransfers,
    ScratchpadReads,
    ScratchpadWrites,
};

inline constexpr size_t kNumSimCounters =
    static_cast<size_t>(SimCounter::ScratchpadWrites) + 1;

/** The EnergyBreakdown category a counter charges. */
enum class EnergyRole : uint8_t
{
    None,
    Compute,  ///< ALU operations and operand-network transfers
    Mde,      ///< MDE tokens, forwards and runtime MAY checks
    LsqBloom, ///< bloom-filter probes
    LsqCam,   ///< CAM searches, allocation and LSQ forwarding
    L1,       ///< L1 and scratchpad accesses
};

/** One row of the counter table. */
struct SimCounterRow
{
    SimCounter id;
    std::string_view name;
    EnergyRole role;
};

inline constexpr std::array<SimCounterRow, kNumSimCounters>
    kSimCounterRows = {{
        {SimCounter::FuFpOps, "fu.fpOps", EnergyRole::Compute},
        {SimCounter::FuIntOps, "fu.intOps", EnergyRole::Compute},
        {SimCounter::L1Hits, "l1.hits", EnergyRole::None},
        {SimCounter::L1Misses, "l1.misses", EnergyRole::None},
        {SimCounter::L1MshrMerges, "l1.mshrMerges", EnergyRole::None},
        {SimCounter::L1MshrStalls, "l1.mshrStalls", EnergyRole::None},
        {SimCounter::L1Reads, "l1.reads", EnergyRole::L1},
        {SimCounter::L1Writebacks, "l1.writebacks", EnergyRole::None},
        {SimCounter::L1Writes, "l1.writes", EnergyRole::L1},
        {SimCounter::LlcHits, "llc.hits", EnergyRole::None},
        {SimCounter::LlcMisses, "llc.misses", EnergyRole::None},
        {SimCounter::LlcMshrMerges, "llc.mshrMerges", EnergyRole::None},
        {SimCounter::LlcMshrStalls, "llc.mshrStalls", EnergyRole::None},
        {SimCounter::LlcReads, "llc.reads", EnergyRole::None},
        {SimCounter::LlcWritebacks, "llc.writebacks", EnergyRole::None},
        {SimCounter::LlcWrites, "llc.writes", EnergyRole::None},
        {SimCounter::LsqAllocs, "lsq.allocs", EnergyRole::LsqCam},
        {SimCounter::LsqBloomHits, "lsq.bloomHits", EnergyRole::None},
        {SimCounter::LsqBloomMisses, "lsq.bloomMisses", EnergyRole::None},
        {SimCounter::LsqBloomProbes, "lsq.bloomProbes",
         EnergyRole::LsqBloom},
        {SimCounter::LsqCamLoads, "lsq.camLoads", EnergyRole::LsqCam},
        {SimCounter::LsqCamStores, "lsq.camStores", EnergyRole::LsqCam},
        {SimCounter::LsqForwards, "lsq.forwards", EnergyRole::LsqCam},
        {SimCounter::MdeForwards, "mde.forwards", EnergyRole::Mde},
        {SimCounter::MdeMayChecks, "mde.mayChecks", EnergyRole::Mde},
        {SimCounter::MdeOrderTokens, "mde.orderTokens", EnergyRole::Mde},
        {SimCounter::NachosChecksClear, "nachos.checksClear",
         EnergyRole::None},
        {SimCounter::NachosChecksConflict, "nachos.checksConflict",
         EnergyRole::None},
        {SimCounter::NachosRuntimeForwards, "nachos.runtimeForwards",
         EnergyRole::None},
        {SimCounter::NetHops, "net.hops", EnergyRole::None},
        {SimCounter::NetTransfers, "net.transfers", EnergyRole::Compute},
        {SimCounter::ScratchpadReads, "scratchpad.reads", EnergyRole::L1},
        {SimCounter::ScratchpadWrites, "scratchpad.writes",
         EnergyRole::L1},
    }};

namespace detail {

/** Row i has id i, and names ascend strictly (so they are unique). */
constexpr bool
simCounterRowsWellFormed()
{
    for (size_t i = 0; i < kNumSimCounters; ++i) {
        if (static_cast<size_t>(kSimCounterRows[i].id) != i)
            return false;
        if (i > 0 &&
            !(kSimCounterRows[i - 1].name < kSimCounterRows[i].name))
            return false;
    }
    return true;
}

} // namespace detail

static_assert(detail::simCounterRowsWellFormed(),
              "counter rows must be indexed by id and sorted by name");
static_assert(kNumSimCounters <= 64, "registered bits fit one word");

/** A run's counters: one Counter per table row, plus its bit. */
class SimStats
{
  public:
    /**
     * Register row `id` and return its counter. Components call this
     * when they bind to a run and keep the returned handle.
     */
    Counter &
    counter(SimCounter id)
    {
        registered_ |= bit(id);
        return values_[index(id)];
    }

    /** The row's value; 0 when it was never registered. */
    uint64_t get(SimCounter id) const { return values_[index(id)].value(); }

    /** Value of the row named `name`; 0 if unknown or unregistered. */
    uint64_t get(std::string_view name) const;

    bool registered(SimCounter id) const
    {
        return (registered_ & bit(id)) != 0;
    }

    /** Zero every row and unregister it. */
    void reset() { *this = SimStats(); }

    /** (name, value) of every registered row, in name order. */
    std::vector<std::pair<std::string, uint64_t>> dump() const;

  private:
    static size_t index(SimCounter id) { return static_cast<size_t>(id); }
    static uint64_t bit(SimCounter id) { return uint64_t{1} << index(id); }

    std::array<Counter, kNumSimCounters> values_{};
    uint64_t registered_ = 0;
};

} // namespace nachos

#endif // NACHOS_SUPPORT_SIM_STATS_HH
