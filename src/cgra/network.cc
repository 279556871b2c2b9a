#include "cgra/network.hh"

#include "energy/model.hh"

namespace nachos {

OperandNetwork::OperandNetwork(const Placement &placement,
                               const NetworkConfig &cfg, StatSet &stats)
    : placement_(placement), cfg_(cfg),
      transfers_(&stats.counter(energy_events::kNetworkTransfers)),
      hops_(&stats.counter("net.hops"))
{}

uint64_t
OperandNetwork::latency(OpId from, OpId to) const
{
    const uint32_t hops = placement_.hops(from, to);
    const uint64_t cycles =
        (hops + cfg_.hopsPerCycle - 1) / cfg_.hopsPerCycle;
    return std::max<uint64_t>(cycles, cfg_.minLatency);
}

void
OperandNetwork::countTransfer(OpId from, OpId to)
{
    // Energy: the paper charges 600 fJ per *link* — one configured
    // static-network route per dataflow edge (per-edge activation).
    // Raw hop counts are kept as a separate diagnostic.
    transfers_->inc();
    hops_->inc(placement_.hops(from, to));
}

} // namespace nachos
