/**
 * @file
 * Static mesh operand network: values travel between function units
 * over pre-routed links; latency scales with Manhattan distance. Each
 * traversed link costs energy (600 fJ/link, paper Figure 3); SimCore
 * counts the transfers as it delivers operands.
 */

#ifndef NACHOS_CGRA_NETWORK_HH
#define NACHOS_CGRA_NETWORK_HH

#include <cstdint>

#include "cgra/placement.hh"

namespace nachos {

/** Operand network timing parameters. */
struct NetworkConfig
{
    /** Links traversed per cycle (pipelined mesh). */
    uint32_t hopsPerCycle = 4;
    /** Minimum transfer latency in cycles. */
    uint32_t minLatency = 1;

    bool operator==(const NetworkConfig &) const = default;
};

/** Latency model of the static operand network. */
class OperandNetwork
{
  public:
    OperandNetwork(const Placement &placement, const NetworkConfig &cfg);

    /** Cycles for a value/token to travel from `from` to `to`. */
    uint64_t latency(OpId from, OpId to) const;

    const NetworkConfig &config() const { return cfg_; }

  private:
    const Placement &placement_;
    NetworkConfig cfg_;
};

} // namespace nachos

#endif // NACHOS_CGRA_NETWORK_HH
