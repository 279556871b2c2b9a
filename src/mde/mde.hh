/**
 * @file
 * Memory Dependence Edges (MDEs): the compiler's encoding of the
 * orderings the accelerator must enforce.
 *
 *   ORDER   — 1-bit ready token between a MUST-aliasing LD->ST or
 *             ST->ST pair; the younger op waits for the older one.
 *   FORWARD — 64-bit value edge between an exactly-MUST-aliasing
 *             ST->LD pair; the memory dependence becomes a data
 *             dependence and the load elides its cache access.
 *   MAY     — compiler-uncertain pair. NACHOS-SW serializes it like
 *             ORDER; NACHOS checks the two addresses at run time at
 *             the younger op's comparator station.
 */

#ifndef NACHOS_MDE_MDE_HH
#define NACHOS_MDE_MDE_HH

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ir/dfg.hh"
#include "support/logging.hh"

namespace nachos {

/** Kind of a memory dependence edge. */
enum class MdeKind : uint8_t { Order, Forward, May };

/** Printable name. */
const char *mdeKindName(MdeKind k);

/** One directed MDE from an older to a younger memory operation. */
struct Mde
{
    OpId older = 0;
    OpId younger = 0;
    MdeKind kind = MdeKind::Order;
};

/** Per-kind edge counts. */
struct MdeCounts
{
    uint64_t order = 0;
    uint64_t forward = 0;
    uint64_t may = 0;

    uint64_t total() const { return order + forward + may; }
};

/**
 * The MDEs of a region and their per-op adjacency, built once from
 * the complete edge list and immutable afterwards (so a cached front
 * end is shared by threads without locks).
 *
 * The adjacency is two CSR tables, in-edges by younger op and
 * out-edges by older op, each grouping an op's edges by kind; within
 * a kind, edges keep their order in the edge list. The list is in
 * younger-op order (asserted), so every out-edge span runs younger op
 * ascending. The simulator backends read these spans directly.
 */
class MdeSet
{
  public:
    MdeSet() = default;

    /**
     * The set of `edges` over `region`'s ops. Each edge points older
     * -> younger, the list is sorted by younger op, and no op has two
     * FORWARD sources (all asserted).
     */
    explicit MdeSet(const Region &region, std::vector<Mde> edges = {});

    const std::vector<Mde> &edges() const { return edges_; }

    const Mde &edge(uint32_t idx) const
    {
        NACHOS_ASSERT(idx < edges_.size(), "edge index out of range");
        return edges_[idx];
    }

    /** Indices of `kind` edges whose younger endpoint is `op`. */
    std::span<const uint32_t> in(OpId op, MdeKind kind) const
    {
        return group(inOffset_, inEdges_, op, kind);
    }

    /** Indices of `kind` edges whose older endpoint is `op`. */
    std::span<const uint32_t> out(OpId op, MdeKind kind) const
    {
        return group(outOffset_, outEdges_, op, kind);
    }

    /**
     * Position of edge `idx` in in(younger, kind): for a MAY edge, the
     * slot its older op fills in the younger op's comparator station.
     */
    uint32_t slot(uint32_t idx) const { return slot_[idx]; }

    MdeCounts counts() const;

    /** Number of MAY-alias parents of each memory op (Figure 14). */
    std::vector<uint32_t> mayFanIns(const Region &region) const;

    size_t size() const { return edges_.size(); }

  private:
    static constexpr size_t kKinds = 3;

    std::vector<Mde> edges_;
    /** Group (op, kind) of a table spans [offset[g], offset[g + 1]),
     * g = op * kKinds + kind. */
    std::vector<uint32_t> inOffset_;
    std::vector<uint32_t> inEdges_;
    std::vector<uint32_t> outOffset_;
    std::vector<uint32_t> outEdges_;
    std::vector<uint32_t> slot_; ///< by edge index

    static std::span<const uint32_t>
    group(const std::vector<uint32_t> &offset,
          const std::vector<uint32_t> &list, OpId op, MdeKind kind)
    {
        const size_t g = op * kKinds + static_cast<size_t>(kind);
        NACHOS_ASSERT(g + 1 < offset.size(), "op out of range");
        return {list.data() + offset[g], offset[g + 1] - offset[g]};
    }
};

/** DOT dump of a region with MDEs drawn as dashed colored edges. */
void dumpDotWithMdes(const Region &region, const MdeSet &mdes,
                     std::ostream &os);

} // namespace nachos

#endif // NACHOS_MDE_MDE_HH
