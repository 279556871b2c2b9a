#include "energy/model.hh"

#include <sstream>

#include "support/table.hh"

namespace nachos {

double
EnergyBreakdown::frac(double category) const
{
    double t = total();
    return t == 0 ? 0.0 : category / t;
}

EnergyBreakdown
EnergyModel::breakdown(const SimStats &stats) const
{
    using C = SimCounter;
    const EnergyParams &p = params_;
    EnergyBreakdown b;

    b.compute = p.aluInt * stats.get(C::FuIntOps) +
                p.aluFp * stats.get(C::FuFpOps) +
                p.networkPerLink * stats.get(C::NetTransfers);

    b.mde = p.mdeMay * stats.get(C::MdeMayChecks) +
            p.mdeMust * stats.get(C::MdeOrderTokens) +
            p.mdeForward * stats.get(C::MdeForwards);

    b.lsqBloom = p.lsqBloom * stats.get(C::LsqBloomProbes);
    b.lsqCam = p.lsqCamLoad * stats.get(C::LsqCamLoads) +
               p.lsqCamStore * stats.get(C::LsqCamStores) +
               p.lsqAlloc * stats.get(C::LsqAllocs) +
               p.lsqForward * stats.get(C::LsqForwards);

    b.l1 = p.l1Read * stats.get(C::L1Reads) +
           p.l1Write * stats.get(C::L1Writes) +
           p.scratchpadAccess * (stats.get(C::ScratchpadReads) +
                                 stats.get(C::ScratchpadWrites));
    return b;
}

std::string
describeBreakdown(const EnergyBreakdown &b)
{
    std::ostringstream os;
    os << "total " << fmtDouble(b.total() / 1e6, 3) << " nJ"
       << " [compute " << fmtPct(b.frac(b.compute))
       << ", mde " << fmtPct(b.frac(b.mde))
       << ", lsq " << fmtPct(b.frac(b.lsq()))
       << ", l1 " << fmtPct(b.frac(b.l1)) << "]";
    return os.str();
}

} // namespace nachos
