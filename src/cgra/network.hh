/**
 * @file
 * Static mesh operand network: values travel between function units
 * over pre-routed links; latency scales with Manhattan distance and
 * each traversed link costs energy (600 fJ/link, paper Figure 3).
 */

#ifndef NACHOS_CGRA_NETWORK_HH
#define NACHOS_CGRA_NETWORK_HH

#include <cstdint>

#include "cgra/placement.hh"
#include "support/stats.hh"

namespace nachos {

/** Operand network timing parameters. */
struct NetworkConfig
{
    /** Links traversed per cycle (pipelined mesh). */
    uint32_t hopsPerCycle = 4;
    /** Minimum transfer latency in cycles. */
    uint32_t minLatency = 1;
};

/** Latency + energy model of the static operand network. */
class OperandNetwork
{
  public:
    OperandNetwork(const Placement &placement, const NetworkConfig &cfg,
                   StatSet &stats);

    /** Cycles for a value/token to travel from `from` to `to`. */
    uint64_t latency(OpId from, OpId to) const;

    /** Account one value transfer (energy: hops * per-link cost). */
    void countTransfer(OpId from, OpId to);

  private:
    const Placement &placement_;
    NetworkConfig cfg_;
    /** Handles resolved once at construction (hot path: no string
     * building per transfer). */
    Counter *transfers_;
    Counter *hops_;
};

} // namespace nachos

#endif // NACHOS_CGRA_NETWORK_HH
