#include "mem/scratchpad.hh"

namespace nachos {

Scratchpad::Scratchpad(uint32_t latency, uint32_t ports, SimStats &stats)
    : latency_(latency),
      reads_(&stats.counter(SimCounter::ScratchpadReads)),
      writes_(&stats.counter(SimCounter::ScratchpadWrites)), bw_(ports)
{}

} // namespace nachos
