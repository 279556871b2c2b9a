#include "cgra/network.hh"

#include <algorithm>

namespace nachos {

OperandNetwork::OperandNetwork(const Placement &placement,
                               const NetworkConfig &cfg)
    : placement_(placement), cfg_(cfg)
{}

uint64_t
OperandNetwork::latency(OpId from, OpId to) const
{
    const uint32_t hops = placement_.hops(from, to);
    const uint64_t cycles =
        (hops + cfg_.hopsPerCycle - 1) / cfg_.hopsPerCycle;
    return std::max<uint64_t>(cycles, cfg_.minLatency);
}

} // namespace nachos
