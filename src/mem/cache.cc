#include "mem/cache.hh"

namespace nachos {

// Out-of-line homes for the cache template over the fixed hierarchy
// chain (L1 -> LLC -> DRAM).
template class CacheT<MainMemory>;
template class CacheT<CacheT<MainMemory>>;

} // namespace nachos
