#include "mde/inserter.hh"

#include <utility>

namespace nachos {

MdeSet
insertMdes(const Region &region, const AliasMatrix &matrix)
{
    std::vector<Mde> edges;
    const uint32_t n = static_cast<uint32_t>(matrix.numMemOps());

    for (uint32_t j = 0; j < n; ++j) {
        const OpId younger = matrix.opOf(j);
        const Operation &oj = region.op(younger);

        // Pick the forwarding source: the *youngest* store with any
        // enforced MUST/MAY relation to this load — and only if that
        // relation is an exact MUST. Forwarding from anything older
        // would be stale whenever a younger possibly-overlapping store
        // actually conflicts at run time (paper §V: multi-store cases
        // degrade to ordering).
        int64_t forward_i = -1;
        if (oj.isLoad()) {
            for (uint32_t back = 0; back < j; ++back) {
                const uint32_t i = j - 1 - back;
                if (!matrix.enforced(i, j))
                    continue;
                if (!region.op(matrix.opOf(i)).isStore())
                    continue;
                if (matrix.relation(i, j) == PairRelation::MustExact)
                    forward_i = i;
                break; // youngest store parent decides
            }
        }

        for (uint32_t i = 0; i < j; ++i) {
            if (!matrix.relevant(i, j) || !matrix.enforced(i, j))
                continue;
            const OpId older = matrix.opOf(i);
            switch (matrix.label(i, j)) {
              case AliasLabel::No:
                break;
              case AliasLabel::May:
                edges.push_back({older, younger, MdeKind::May});
                break;
              case AliasLabel::Must:
                if (static_cast<int64_t>(i) == forward_i)
                    edges.push_back({older, younger, MdeKind::Forward});
                else
                    edges.push_back({older, younger, MdeKind::Order});
                break;
            }
        }
    }
    return MdeSet(region, std::move(edges));
}

} // namespace nachos
