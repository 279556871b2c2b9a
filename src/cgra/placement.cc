#include "cgra/placement.hh"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "support/logging.hh"

namespace nachos {

Placement::Placement(const Region &region)
{
    const size_t n = region.numOps();
    levels_.assign(n, 0);
    for (const auto &o : region.ops()) {
        uint32_t level = 0;
        for (OpId src : o.operands)
            level = std::max(level, levels_[src] + 1);
        levels_[o.id] = level;
        depth_ = std::max(depth_, level + 1);
    }

    // Greedy producer-proximity placement, the first-order behavior of
    // the mappers the paper relies on [5],[7]: each op lands on the
    // free cell nearest the centroid of its producers (spiral search).
    // If the region exceeds the grid, cells are reused (FUs
    // time-share; hop distances stay defined).
    const uint32_t cells = kGridRows * kGridCols;
    std::vector<uint8_t> occupied(cells, 0);
    uint32_t placed_in_pass = 0;

    coords_.assign(n, {});
    for (const auto &o : region.ops()) {
        // Centroid of operand coordinates; sources default to center.
        int64_t row_sum = kGridRows / 2, col_sum = kGridCols / 2;
        int64_t cnt = 1;
        for (OpId src : o.operands) {
            row_sum += coords_[src].row;
            col_sum += coords_[src].col;
            ++cnt;
        }
        const int want_r = static_cast<int>(row_sum / cnt);
        const int want_c = static_cast<int>(col_sum / cnt);

        // Spiral outward for the nearest free cell.
        bool done = false;
        const int max_radius =
            static_cast<int>(kGridRows + kGridCols);
        for (int radius = 0; radius <= max_radius && !done; ++radius) {
            for (int dr = -radius; dr <= radius && !done; ++dr) {
                const int rem = radius - std::abs(dr);
                for (int dc : {-rem, rem}) {
                    const int r = want_r + dr;
                    const int c = want_c + dc;
                    if (r < 0 || c < 0 ||
                        r >= static_cast<int>(kGridRows) ||
                        c >= static_cast<int>(kGridCols)) {
                        continue;
                    }
                    const uint32_t cell =
                        static_cast<uint32_t>(r) * kGridCols +
                        static_cast<uint32_t>(c);
                    if (occupied[cell])
                        continue;
                    occupied[cell] = 1;
                    ++placed_in_pass;
                    coords_[o.id] = {static_cast<uint32_t>(r),
                                     static_cast<uint32_t>(c)};
                    done = true;
                    break;
                }
            }
        }
        if (!done) {
            // Grid full: start a fresh time-sharing pass.
            std::fill(occupied.begin(), occupied.end(), 0);
            placed_in_pass = 0;
            const uint32_t cell =
                static_cast<uint32_t>(want_r) * kGridCols +
                static_cast<uint32_t>(want_c);
            occupied[cell] = 1;
            ++placed_in_pass;
            coords_[o.id] = {static_cast<uint32_t>(want_r),
                             static_cast<uint32_t>(want_c)};
        }
    }
    (void)placed_in_pass;

    // Force-directed refinement: a few sweeps of pairwise swaps that
    // reduce total wire length, approximating what simulated-annealing
    // CGRA mappers achieve. Only worthwhile when ops have distinct
    // cells (single time-sharing pass).
    if (n <= cells)
        refine(region);
}

void
Placement::refine(const Region &region)
{
    const size_t n = region.numOps();
    std::vector<uint32_t> cell_of(n);
    std::vector<int32_t> op_at(kGridRows * kGridCols, -1);
    for (OpId op = 0; op < n; ++op) {
        const uint32_t cell =
            coords_[op].row * kGridCols + coords_[op].col;
        cell_of[op] = cell;
        op_at[cell] = static_cast<int32_t>(op);
    }

    auto wire_cost = [&](OpId op, Coord at) {
        uint64_t cost = 0;
        const Operation &o = region.op(op);
        auto dist = [&](OpId other) {
            const Coord c = coords_[other];
            return static_cast<uint64_t>(
                std::abs(static_cast<int>(at.row) -
                         static_cast<int>(c.row)) +
                std::abs(static_cast<int>(at.col) -
                         static_cast<int>(c.col)));
        };
        for (OpId src : o.operands)
            cost += dist(src);
        for (OpId user : region.users(op))
            cost += dist(user);
        return cost;
    };

    for (int sweep = 0; sweep < 3; ++sweep) {
        for (OpId op = 0; op < n; ++op) {
            const Operation &o = region.op(op);
            if (o.operands.empty() && region.users(op).empty())
                continue;
            // Ideal location: centroid of producers and consumers.
            int64_t row_sum = 0, col_sum = 0, cnt = 0;
            for (OpId src : o.operands) {
                row_sum += coords_[src].row;
                col_sum += coords_[src].col;
                ++cnt;
            }
            for (OpId user : region.users(op)) {
                row_sum += coords_[user].row;
                col_sum += coords_[user].col;
                ++cnt;
            }
            const Coord ideal{
                static_cast<uint32_t>(row_sum / cnt),
                static_cast<uint32_t>(col_sum / cnt)};
            const uint32_t target_cell =
                ideal.row * kGridCols + ideal.col;
            if (target_cell == cell_of[op])
                continue;

            const Coord here = coords_[op];
            const int32_t other = op_at[target_cell];
            uint64_t before = wire_cost(op, here);
            uint64_t after = wire_cost(op, ideal);
            if (other >= 0) {
                before += wire_cost(static_cast<OpId>(other), ideal);
                after += wire_cost(static_cast<OpId>(other), here);
            }
            if (after >= before)
                continue;

            // Swap (or move into the free cell).
            op_at[cell_of[op]] = other;
            op_at[target_cell] = static_cast<int32_t>(op);
            if (other >= 0) {
                coords_[static_cast<OpId>(other)] = here;
                cell_of[static_cast<OpId>(other)] = cell_of[op];
            }
            coords_[op] = ideal;
            cell_of[op] = target_cell;
        }
    }
}

Coord
Placement::coordOf(OpId op) const
{
    NACHOS_ASSERT(op < coords_.size(), "op out of range");
    return coords_[op];
}

uint32_t
Placement::hops(OpId a, OpId b) const
{
    const Coord ca = coordOf(a);
    const Coord cb = coordOf(b);
    const int dr = static_cast<int>(ca.row) - static_cast<int>(cb.row);
    const int dc = static_cast<int>(ca.col) - static_cast<int>(cb.col);
    return static_cast<uint32_t>(std::abs(dr) + std::abs(dc));
}

uint32_t
Placement::levelOf(OpId op) const
{
    NACHOS_ASSERT(op < levels_.size(), "op out of range");
    return levels_[op];
}

} // namespace nachos
