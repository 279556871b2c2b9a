/**
 * @file
 * Pairwise alias-relation storage for the memory operations of a
 * region.
 *
 * The paper's compiler classifies every pair of (disambiguated) memory
 * operations as NO / MAY / MUST alias. We additionally distinguish
 * exact MUST (same address and footprint; eligible for ST->LD
 * forwarding) from partial MUST (overlap; enforced as ordering only),
 * and track per-pair enforcement (Stage 3 marks relations whose
 * ordering is already implied by data dependences as not-enforced).
 */

#ifndef NACHOS_ANALYSIS_ALIAS_MATRIX_HH
#define NACHOS_ANALYSIS_ALIAS_MATRIX_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/dfg.hh"

namespace nachos {

/** Collapsed alias label, as the paper reports it. */
enum class AliasLabel : uint8_t { No, May, Must };

/** Full pair relation (distinguishes forwarding-eligible MUST). */
enum class PairRelation : uint8_t { No, May, MustExact, MustPartial };

/** Collapse a PairRelation to the paper's three-way label. */
inline AliasLabel
toLabel(PairRelation r)
{
    switch (r) {
      case PairRelation::No: return AliasLabel::No;
      case PairRelation::May: return AliasLabel::May;
      default: return AliasLabel::Must;
    }
}

/** Printable names. */
const char *aliasLabelName(AliasLabel l);
const char *pairRelationName(PairRelation r);

/** Aggregate pair counts, used for per-stage statistics. */
struct PairCounts
{
    uint64_t no = 0;
    uint64_t may = 0;
    uint64_t must = 0;

    uint64_t total() const { return no + may + must; }
    double fracMay() const;
    double fracMust() const;
};

/**
 * Triangular matrix of pair relations over a region's disambiguated
 * memory operations, indexed by memIndex (i < j in program order).
 */
class AliasMatrix
{
  public:
    AliasMatrix() = default;

    /** Create for a region; all pairs initialized to May. */
    explicit AliasMatrix(const Region &region);

    size_t numMemOps() const { return n_; }
    size_t numPairs() const { return relations_.size(); }

    PairRelation relation(uint32_t i, uint32_t j) const;
    void setRelation(uint32_t i, uint32_t j, PairRelation r);

    AliasLabel label(uint32_t i, uint32_t j) const;

    /** Enforcement flag (MDE needed); set by Stage 3. */
    bool enforced(uint32_t i, uint32_t j) const;
    void setEnforced(uint32_t i, uint32_t j, bool e);

    /**
     * True if the pair needs ordering at all: at least one side is a
     * store (LD-LD ordering is only required for racy parallel code,
     * which offload paths are not).
     */
    bool relevant(uint32_t i, uint32_t j) const;

    /** OpId of the memory op with the given memIndex. */
    OpId opOf(uint32_t mem_index) const;

    /** Counts over all relevant pairs. */
    PairCounts counts() const;

    /**
     * counts(), and the same counts over the relevant pairs that are
     * still enforced, from one walk of the matrix.
     */
    std::pair<PairCounts, PairCounts> countsAndEnforced() const;

  private:
    size_t n_ = 0;
    std::vector<PairRelation> relations_;
    std::vector<uint8_t> enforced_;
    std::vector<OpId> memOps_;
    std::vector<uint8_t> isStore_;

    size_t pairIndex(uint32_t i, uint32_t j) const;
};

} // namespace nachos

#endif // NACHOS_ANALYSIS_ALIAS_MATRIX_HH
