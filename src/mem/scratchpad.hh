/**
 * @file
 * Software-managed scratchpad for compiler-localized data (paper §III:
 * stack variables and region-private globals are promoted and need no
 * disambiguation).
 */

#ifndef NACHOS_MEM_SCRATCHPAD_HH
#define NACHOS_MEM_SCRATCHPAD_HH

#include <cstdint>

#include "mem/bandwidth.hh"
#include "support/sim_stats.hh"

namespace nachos {

/** Fixed-latency, high-bandwidth local store. */
class Scratchpad
{
  public:
    /** Registers and resolves its counter rows in `stats`. */
    Scratchpad(uint32_t latency, uint32_t ports, SimStats &stats);

    /** Timed access; returns completion cycle. */
    uint64_t
    access(uint64_t addr, bool write, uint64_t cycle)
    {
        (void)addr;
        (write ? writes_ : reads_)->inc();
        // Banked: bandwidth is rarely the bottleneck; model
        // generously.
        return bw_.admit(cycle) + latency_;
    }

  private:
    uint32_t latency_;
    Counter *reads_;
    Counter *writes_;
    BandwidthRegulator bw_;
};

} // namespace nachos

#endif // NACHOS_MEM_SCRATCHPAD_HH
