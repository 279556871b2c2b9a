#include "lsq/bloom.hh"

#include "support/logging.hh"

namespace nachos {

BloomFilter::BloomFilter(const BloomConfig &cfg)
    : cfg_(cfg), counters_(cfg.counters, 0)
{
    NACHOS_ASSERT((cfg_.counters & (cfg_.counters - 1)) == 0,
                  "bloom counter count must be a power of two");
    NACHOS_ASSERT(cfg_.hashes >= 1 && cfg_.granule >= 1,
                  "bad bloom config");
}

uint32_t
BloomFilter::slot(uint64_t granule_addr, uint32_t hash_idx) const
{
    uint64_t z = granule_addr * 0x9e3779b97f4a7c15ULL +
                 (hash_idx + 1) * 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 29;
    z *= 0x94d049bb133111ebULL;
    z ^= z >> 32;
    return static_cast<uint32_t>(z & (cfg_.counters - 1));
}

template <typename Fn>
void
BloomFilter::forEachGranule(uint64_t addr, uint32_t size, Fn &&fn) const
{
    uint64_t first = addr / cfg_.granule;
    uint64_t last = (addr + size - 1) / cfg_.granule;
    for (uint64_t g = first; g <= last; ++g)
        fn(g);
}

void
BloomFilter::insert(uint64_t addr, uint32_t size)
{
    forEachGranule(addr, size, [&](uint64_t g) {
        for (uint32_t h = 0; h < cfg_.hashes; ++h) {
            uint16_t &c = counters_[slot(g, h)];
            NACHOS_ASSERT(c < 0xffff, "bloom counter overflow");
            ++c;
        }
        ++population_;
    });
}

void
BloomFilter::remove(uint64_t addr, uint32_t size)
{
    forEachGranule(addr, size, [&](uint64_t g) {
        for (uint32_t h = 0; h < cfg_.hashes; ++h) {
            uint16_t &c = counters_[slot(g, h)];
            NACHOS_ASSERT(c > 0, "bloom remove without insert");
            --c;
        }
        NACHOS_ASSERT(population_ > 0, "bloom population underflow");
        --population_;
    });
}

bool
BloomFilter::mayContain(uint64_t addr, uint32_t size) const
{
    bool any = false;
    forEachGranule(addr, size, [&](uint64_t g) {
        bool all = true;
        for (uint32_t h = 0; h < cfg_.hashes; ++h)
            all &= counters_[slot(g, h)] > 0;
        any |= all;
    });
    return any;
}

void
BloomFilter::clear()
{
    std::fill(counters_.begin(), counters_.end(), 0);
    population_ = 0;
}

} // namespace nachos
