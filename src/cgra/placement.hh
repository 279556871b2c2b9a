/**
 * @file
 * Spatial placement of the dataflow graph onto the CGRA grid.
 *
 * The paper maps one operation per function unit on a 32x32
 * homogeneous grid (Figure 3) using prior-work mappers [5],[7]; for
 * timing we only need coordinates to derive operand-network hop
 * counts, so a deterministic level-ordered snake placement suffices:
 * operations at the same dataflow depth sit near each other, producers
 * sit near consumers.
 */

#ifndef NACHOS_CGRA_PLACEMENT_HH
#define NACHOS_CGRA_PLACEMENT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/dfg.hh"

namespace nachos {

/** The Figure-3 grid: 32x32 homogeneous function units. */
inline constexpr uint32_t kGridRows = 32;
inline constexpr uint32_t kGridCols = 32;

/** Grid coordinate of a mapped operation. */
struct Coord
{
    uint32_t row = 0;
    uint32_t col = 0;

    bool operator==(const Coord &) const = default;
};

/**
 * Deterministic level-ordered placement. It keeps no reference to the
 * region, so it moves with the front end that owns it (harness
 * FrontEnd); default construction places no ops.
 */
class Placement
{
  public:
    Placement() = default;
    explicit Placement(const Region &region);

    /** Number of ops placed. */
    size_t numOps() const { return coords_.size(); }

    Coord coordOf(OpId op) const;

    /** Manhattan distance between two ops' function units. */
    uint32_t hops(OpId a, OpId b) const;

    /** Dataflow depth (longest operand path) of an op. */
    uint32_t levelOf(OpId op) const;

    /** Depth of the whole graph (critical path in ops). */
    uint32_t depth() const { return depth_; }

  private:
    std::vector<Coord> coords_;
    std::vector<uint32_t> levels_;
    uint32_t depth_ = 0;

    void refine(const Region &region);
};

} // namespace nachos

#endif // NACHOS_CGRA_PLACEMENT_HH
