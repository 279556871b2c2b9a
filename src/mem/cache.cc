#include "mem/cache.hh"

#include <cstring>

namespace nachos {

bool
CacheConfig::sameAs(const CacheConfig &o) const
{
    return sizeBytes == o.sizeBytes && assoc == o.assoc &&
           lineBytes == o.lineBytes && hitLatency == o.hitLatency &&
           numMshrs == o.numMshrs && ports == o.ports &&
           std::strcmp(name, o.name) == 0;
}

// Out-of-line homes for the cache template over the fixed hierarchy
// chain (L1 -> LLC -> DRAM).
template class CacheT<MainMemory>;
template class CacheT<CacheT<MainMemory>>;

} // namespace nachos
