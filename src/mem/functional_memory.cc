#include "mem/functional_memory.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "support/logging.hh"

namespace nachos {

namespace {

/** True when a plain memcpy matches the little-endian byte order the
 * read()/write() contract is specified in. */
constexpr bool kHostLittleEndian =
    std::endian::native == std::endian::little;

} // namespace

uint8_t
FunctionalMemory::backgroundByte(uint64_t addr)
{
    uint64_t z = addr + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<uint8_t>(z ^ (z >> 31));
}

FunctionalMemory::Page *
FunctionalMemory::findPage(uint64_t page_index) const
{
    if (page_index == cachedIndex_)
        return cachedPage_;
    auto it = pages_.find(page_index);
    if (it == pages_.end())
        return nullptr;
    cachedIndex_ = page_index;
    cachedPage_ = it->second.get();
    return cachedPage_;
}

FunctionalMemory::Page &
FunctionalMemory::touchPage(uint64_t page_index)
{
    if (page_index != cachedIndex_) {
        std::unique_ptr<Page> &slot = pages_[page_index];
        if (!slot) {
            slot = std::make_unique_for_overwrite<Page>();
            std::memset(slot->written, 0, sizeof(slot->written));
            slot->listed = false;
            // data[] is left uninitialized on purpose: the bitmap
            // guards every read, and 4 KiB of memset per cold page
            // would be the dominant cost for scattered footprints.
        }
        cachedIndex_ = page_index;
        cachedPage_ = slot.get();
    }
    // The cached page may have been cached by a read (findPage), so
    // it is not necessarily listed yet.
    if (!cachedPage_->listed) {
        cachedPage_->listed = true;
        writtenPages_.push_back({page_index, cachedPage_});
    }
    return *cachedPage_;
}

uint8_t
FunctionalMemory::readByte(uint64_t addr) const
{
    const Page *page = findPage(addr / kPageBytes);
    const uint32_t off = static_cast<uint32_t>(addr % kPageBytes);
    if (page == nullptr ||
        ((page->written[off >> 6] >> (off & 63)) & 1) == 0)
        return backgroundByte(addr);
    return page->data[off];
}

void
FunctionalMemory::writeByte(uint64_t addr, uint8_t byte)
{
    Page &page = touchPage(addr / kPageBytes);
    const uint32_t off = static_cast<uint32_t>(addr % kPageBytes);
    const uint64_t bit = uint64_t{1} << (off & 63);
    uint64_t &word = page.written[off >> 6];
    writtenBytes_ += (word & bit) == 0;
    word |= bit;
    page.data[off] = byte;
}

int64_t
FunctionalMemory::read(uint64_t addr, uint32_t size) const
{
    NACHOS_ASSERT(size >= 1 && size <= 8, "read size 1..8");
    const uint32_t off = static_cast<uint32_t>(addr % kPageBytes);
    if (off + size <= kPageBytes) {
        const Page *page = findPage(addr / kPageBytes);
        const uint32_t full = (1u << size) - 1;
        uint32_t wmask = 0;
        if (page != nullptr) {
            const uint32_t word = off >> 6;
            const uint32_t bit = off & 63;
            uint64_t bits = page->written[word] >> bit;
            if (bit + size > 64)
                bits |= page->written[word + 1] << (64 - bit);
            wmask = static_cast<uint32_t>(bits) & full;
        }
        if (wmask == full && kHostLittleEndian) {
            uint64_t v = 0;
            std::memcpy(&v, page->data + off, size);
            return static_cast<int64_t>(v);
        }
        uint64_t v = 0;
        for (uint32_t i = 0; i < size; ++i) {
            const uint8_t byte = (wmask >> i) & 1
                                     ? page->data[off + i]
                                     : backgroundByte(addr + i);
            v |= static_cast<uint64_t>(byte) << (8 * i);
        }
        // Sign extension is unnecessary for ordering validation;
        // values are compared bit-for-bit.
        return static_cast<int64_t>(v);
    }
    // Page-straddling access: assemble byte by byte.
    uint64_t v = 0;
    for (uint32_t i = 0; i < size; ++i)
        v |= static_cast<uint64_t>(readByte(addr + i)) << (8 * i);
    return static_cast<int64_t>(v);
}

void
FunctionalMemory::write(uint64_t addr, uint32_t size, int64_t value)
{
    NACHOS_ASSERT(size >= 1 && size <= 8, "write size 1..8");
    const uint64_t v = static_cast<uint64_t>(value);
    const uint32_t off = static_cast<uint32_t>(addr % kPageBytes);
    if (off + size <= kPageBytes) {
        Page &page = touchPage(addr / kPageBytes);
        if (kHostLittleEndian) {
            std::memcpy(page.data + off, &v, size);
        } else {
            for (uint32_t i = 0; i < size; ++i)
                page.data[off + i] = static_cast<uint8_t>(v >> (8 * i));
        }
        const uint64_t mask = (uint64_t{1} << size) - 1;
        const uint32_t word = off >> 6;
        const uint32_t bit = off & 63;
        const uint64_t lo = mask << bit;
        writtenBytes_ += static_cast<size_t>(
            std::popcount(lo & ~page.written[word]));
        page.written[word] |= lo;
        if (bit + size > 64) {
            const uint64_t hi = mask >> (64 - bit);
            writtenBytes_ += static_cast<size_t>(
                std::popcount(hi & ~page.written[word + 1]));
            page.written[word + 1] |= hi;
        }
        return;
    }
    for (uint32_t i = 0; i < size; ++i)
        writeByte(addr + i, static_cast<uint8_t>(v >> (8 * i)));
}

void
FunctionalMemory::reset()
{
    for (const ListedPage &p : writtenPages_) {
        std::memset(p.page->written, 0, sizeof(p.page->written));
        p.page->listed = false;
    }
    writtenPages_.clear();
    writtenBytes_ = 0;
}

std::vector<std::pair<uint64_t, uint8_t>>
FunctionalMemory::image() const
{
    // The list's order is not observable elsewhere, so sort in place.
    std::sort(writtenPages_.begin(), writtenPages_.end(),
              [](const ListedPage &a, const ListedPage &b) {
                  return a.index < b.index;
              });

    std::vector<std::pair<uint64_t, uint8_t>> out;
    out.reserve(writtenBytes_);
    for (const ListedPage &p : writtenPages_) {
        const Page &page = *p.page;
        const uint64_t base = p.index * kPageBytes;
        for (uint32_t w = 0; w < kBitmapWords; ++w) {
            uint64_t bits = page.written[w];
            while (bits != 0) {
                const uint32_t i =
                    static_cast<uint32_t>(std::countr_zero(bits));
                bits &= bits - 1;
                const uint32_t off = w * 64 + i;
                out.emplace_back(base + off, page.data[off]);
            }
        }
    }
    return out;
}

} // namespace nachos
