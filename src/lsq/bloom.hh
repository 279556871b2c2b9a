/**
 * @file
 * Counting Bloom filter used by OPT-LSQ to elide CAM searches
 * (Sethumadhavan et al. [32] style "search filtering"). Counting
 * counters allow removal when stores drain.
 */

#ifndef NACHOS_LSQ_BLOOM_HH
#define NACHOS_LSQ_BLOOM_HH

#include <cstdint>
#include <vector>

namespace nachos {

/** Configuration of the filter. */
struct BloomConfig
{
    uint32_t counters = 512; ///< number of counters (power of two)
    uint32_t hashes = 2;     ///< hash functions per key
    /** Keys are addresses quantized to this granule (bytes). */
    uint32_t granule = 8;

    bool operator==(const BloomConfig &) const = default;
};

/** A small counting Bloom filter keyed on address granules. */
class BloomFilter
{
  public:
    explicit BloomFilter(const BloomConfig &cfg = {});

    /** Insert all granules covered by [addr, addr+size). */
    void insert(uint64_t addr, uint32_t size);

    /** Remove a previously inserted range. */
    void remove(uint64_t addr, uint32_t size);

    /** Might any granule of [addr, addr+size) be present? */
    bool mayContain(uint64_t addr, uint32_t size) const;

    /** True when no key is present (all counters zero). */
    bool empty() const { return population_ == 0; }

    void clear();

  private:
    BloomConfig cfg_;
    std::vector<uint16_t> counters_;
    uint64_t population_ = 0;

    uint32_t slot(uint64_t granule_addr, uint32_t hash_idx) const;
    template <typename Fn> void forEachGranule(uint64_t addr,
                                               uint32_t size,
                                               Fn &&fn) const;
};

} // namespace nachos

#endif // NACHOS_LSQ_BLOOM_HH
