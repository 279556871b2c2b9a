#include "mde/mde.hh"

#include <ostream>
#include <utility>

#include "support/logging.hh"

namespace nachos {

const char *
mdeKindName(MdeKind k)
{
    switch (k) {
      case MdeKind::Order: return "ORDER";
      case MdeKind::Forward: return "FORWARD";
      case MdeKind::May: return "MAY";
    }
    return "?";
}

MdeSet::MdeSet(const Region &region, std::vector<Mde> edges)
    : edges_(std::move(edges))
{
    OpId last_younger = 0;
    for (const Mde &e : edges_) {
        NACHOS_ASSERT(e.older < e.younger,
                      "MDE must point older -> younger");
        NACHOS_ASSERT(e.younger < region.numOps(), "MDE op out of range");
        NACHOS_ASSERT(e.younger >= last_younger,
                      "MDEs must be listed in younger-op order");
        last_younger = e.younger;
    }

    // Counting sort of the edge indices into (op, kind) groups; a
    // stable pass, so each group keeps the edge-list order.
    const size_t groups = region.numOps() * kKinds;
    const auto fill = [&](OpId Mde::*endpoint,
                          std::vector<uint32_t> &offset,
                          std::vector<uint32_t> &list) {
        const auto group_of = [endpoint](const Mde &e) {
            return e.*endpoint * kKinds + static_cast<size_t>(e.kind);
        };
        offset.assign(groups + 1, 0);
        for (const Mde &e : edges_)
            ++offset[group_of(e) + 1];
        for (size_t g = 0; g < groups; ++g)
            offset[g + 1] += offset[g];
        std::vector<uint32_t> next(offset.begin(), offset.end() - 1);
        list.resize(edges_.size());
        for (uint32_t idx = 0; idx < edges_.size(); ++idx)
            list[next[group_of(edges_[idx])]++] = idx;
    };
    fill(&Mde::younger, inOffset_, inEdges_);
    fill(&Mde::older, outOffset_, outEdges_);

    slot_.resize(edges_.size());
    for (size_t g = 0; g < groups; ++g) {
        for (uint32_t pos = inOffset_[g]; pos < inOffset_[g + 1]; ++pos)
            slot_[inEdges_[pos]] = pos - inOffset_[g];
    }
    for (OpId op = 0; op < region.numOps(); ++op)
        NACHOS_ASSERT(in(op, MdeKind::Forward).size() <= 1,
                      "load with two FORWARD sources");
}

MdeCounts
MdeSet::counts() const
{
    MdeCounts c;
    for (const auto &e : edges_) {
        switch (e.kind) {
          case MdeKind::Order: ++c.order; break;
          case MdeKind::Forward: ++c.forward; break;
          case MdeKind::May: ++c.may; break;
        }
    }
    return c;
}

std::vector<uint32_t>
MdeSet::mayFanIns(const Region &region) const
{
    std::vector<uint32_t> fanins;
    fanins.reserve(region.memOps().size());
    for (OpId op : region.memOps())
        fanins.push_back(
            static_cast<uint32_t>(in(op, MdeKind::May).size()));
    return fanins;
}

void
dumpDotWithMdes(const Region &region, const MdeSet &mdes,
                std::ostream &os)
{
    os << "digraph \"" << region.name() << "_mde\" {\n";
    os << "  rankdir=TB;\n  node [shape=box];\n";
    for (const auto &o : region.ops()) {
        os << "  n" << o.id << " [label=\"" << o.id << ": "
           << opKindName(o.kind) << "\"];\n";
    }
    for (const auto &o : region.ops()) {
        for (OpId src : o.operands)
            os << "  n" << src << " -> n" << o.id << ";\n";
    }
    for (const auto &e : mdes.edges()) {
        const char *color = e.kind == MdeKind::Order    ? "blue"
                            : e.kind == MdeKind::Forward ? "green"
                                                         : "red";
        os << "  n" << e.older << " -> n" << e.younger
           << " [style=dashed, color=" << color << ", label=\""
           << mdeKindName(e.kind) << "\"];\n";
    }
    os << "}\n";
}

} // namespace nachos
