/**
 * @file
 * Functional (value) memory, separated from the timing model. All
 * three ordering backends operate on identical functional state, so a
 * divergence in final memory image or load values between backends is
 * direct evidence of a memory-ordering violation.
 */

#ifndef NACHOS_MEM_FUNCTIONAL_MEMORY_HH
#define NACHOS_MEM_FUNCTIONAL_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace nachos {

/**
 * Sparse byte-addressable memory. Untouched bytes read as a
 * deterministic hash of their address, so loads observe reproducible
 * non-zero data without pre-initialization.
 *
 * Storage is paged (DESIGN.md §10), in the spirit of gem5's paged
 * physical memory: 4 KiB pages each hold a flat byte array plus a
 * written-bitmap so unwritten bytes still read backgroundByte(addr).
 * Accesses that stay within one page move a word at a time; a
 * last-page pointer cache makes sequential streams touch the page
 * table only once per 4 KiB. Observable behavior — load values,
 * footprint(), image() — is bit-identical to the original per-byte
 * hash map.
 */
class FunctionalMemory
{
  public:
    static constexpr uint32_t kPageBytes = 4096;

    /** Read `size` bytes (1..8) little-endian. */
    int64_t read(uint64_t addr, uint32_t size) const;

    /** Write the low `size` bytes (1..8) of `value` little-endian. */
    void write(uint64_t addr, uint32_t size, int64_t value);

    /**
     * Forget all written state. Cost is proportional to the pages
     * written since the last reset, not to every page ever touched or
     * to any address-space capacity; page storage is retained for
     * reuse so reset-heavy callers do not churn the allocator.
     */
    void reset();

    /** Number of distinct bytes written so far. */
    size_t footprint() const { return writtenBytes_; }

    /**
     * Snapshot of all written bytes, sorted by address — used to
     * compare final memory images across backends. Visits only the
     * pages written since the last reset.
     */
    std::vector<std::pair<uint64_t, uint8_t>> image() const;

    /** The deterministic background value of an unwritten byte. */
    static uint8_t backgroundByte(uint64_t addr);

  private:
    static constexpr uint32_t kBitmapWords = kPageBytes / 64;

    struct Page
    {
        uint8_t data[kPageBytes];
        /** Bit i set iff data[i] has been written. */
        uint64_t written[kBitmapWords];
        /** True iff the page is on writtenPages_. */
        bool listed;
    };

    /** A page written since the last reset. */
    struct ListedPage
    {
        uint64_t index;
        Page *page;
    };

    /** Page lookup through the last-page cache; nullptr if absent. */
    Page *findPage(uint64_t page_index) const;
    /**
     * Page lookup for a write, creating (zero-bitmap) on first touch
     * and listing the page on writtenPages_.
     */
    Page &touchPage(uint64_t page_index);

    uint8_t readByte(uint64_t addr) const;
    void writeByte(uint64_t addr, uint8_t byte);

    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;
    mutable uint64_t cachedIndex_ = ~uint64_t{0};
    mutable Page *cachedPage_ = nullptr;
    /** Pages written since the last reset; image() sorts it by index. */
    mutable std::vector<ListedPage> writtenPages_;
    size_t writtenBytes_ = 0;
};

} // namespace nachos

#endif // NACHOS_MEM_FUNCTIONAL_MEMORY_HH
