#include "testing/diff_fuzzer.hh"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/pipeline.hh"
#include "cgra/simulator.hh"
#include "ir/serialize.hh"
#include "mde/inserter.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "testing/reference.hh"
#include "testing/shrink.hh"

namespace nachos {
namespace testing {

const char *
faultName(FaultInjection f)
{
    switch (f) {
      case FaultInjection::None: return "none";
      case FaultInjection::DropOrderEdge: return "drop-order";
      case FaultInjection::DropMayEdge: return "drop-may";
      case FaultInjection::DropForwardEdge: return "drop-forward";
    }
    return "?";
}

FaultInjection
faultByName(const std::string &name)
{
    if (name == "none")
        return FaultInjection::None;
    if (name == "drop-order")
        return FaultInjection::DropOrderEdge;
    if (name == "drop-may")
        return FaultInjection::DropMayEdge;
    if (name == "drop-forward")
        return FaultInjection::DropForwardEdge;
    NACHOS_FATAL("unknown fault injection '", name,
                 "' (want none|drop-order|drop-may|drop-forward)");
}

namespace {

/**
 * Allowed NACHOS-over-NACHOS-SW cycle excess per invocation, on top of
 * the region's worst station MAY fan-in (see the metamorphic check).
 */
constexpr uint64_t kMetamorphicSlackPerInvocation = 4;

MdeKind
faultKind(FaultInjection f)
{
    switch (f) {
      case FaultInjection::DropOrderEdge: return MdeKind::Order;
      case FaultInjection::DropMayEdge: return MdeKind::May;
      case FaultInjection::DropForwardEdge: return MdeKind::Forward;
      case FaultInjection::None: break;
    }
    NACHOS_FATAL("faultKind(None)");
}

/**
 * `mdes` minus one edge of the fault's kind (deterministic pick so a
 * failing seed replays identically), or nullopt when there is nothing
 * to inject: no fault, or no edge of that kind. The caller then runs
 * the clean set itself; a fault that cannot be expressed is vacuous
 * for the mutation self-test, and the caller keeps fuzzing seeds.
 */
std::optional<MdeSet>
applyFault(const Region &region, const MdeSet &mdes, FaultInjection fault)
{
    if (fault == FaultInjection::None)
        return std::nullopt;
    const MdeKind kind = faultKind(fault);
    std::vector<uint32_t> candidates;
    for (uint32_t i = 0; i < mdes.edges().size(); ++i) {
        if (mdes.edges()[i].kind == kind)
            candidates.push_back(i);
    }
    if (candidates.empty())
        return std::nullopt;
    // Golden-ratio scramble of the op count: which edge is dropped
    // varies across regions, but stays fixed for any given region.
    const uint32_t drop = candidates[(region.numOps() * 2654435761u) %
                                     candidates.size()];
    std::vector<Mde> edges = mdes.edges();
    edges.erase(edges.begin() + drop);
    return MdeSet(region, std::move(edges));
}

std::string
hex(uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

/** MUST pairs needing program order: (older op, younger op). */
std::vector<std::pair<OpId, OpId>>
mustPairs(const AliasMatrix &matrix)
{
    std::vector<std::pair<OpId, OpId>> out;
    const uint32_t n = static_cast<uint32_t>(matrix.numMemOps());
    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = i + 1; j < n; ++j) {
            if (matrix.relevant(i, j) &&
                matrix.label(i, j) == AliasLabel::Must)
                out.emplace_back(matrix.opOf(i), matrix.opOf(j));
        }
    }
    return out;
}

/** Where a run committed one (invocation, op): its position in the
 * commit trace. */
struct CommitSlot
{
    size_t seq = SIZE_MAX; ///< SIZE_MAX: never committed
    bool forwarded = false;
};

/**
 * All per-run checks against the reference execution. `seq` is the
 * case's commit-position table, refilled for each run so the case's
 * runs share one buffer.
 */
void
checkRun(const Region &region, const ReferenceResult &ref,
         const SimResult &res, const std::string &backend,
         uint64_t invocations,
         const std::vector<std::pair<OpId, OpId>> &must,
         std::vector<CommitSlot> &seq, std::vector<FuzzMismatch> &out)
{
    if (res.loadValueDigest != ref.loadValueDigest) {
        out.push_back({"oracle-digest", backend,
                       "load-value digest " + hex(res.loadValueDigest) +
                           " != reference " + hex(ref.loadValueDigest)});
    }
    if (res.memImage != ref.memImage) {
        std::string detail = "final memory image differs (" +
                             std::to_string(res.memImage.size()) +
                             " vs " + std::to_string(ref.memImage.size()) +
                             " bytes)";
        const size_t n =
            std::min(res.memImage.size(), ref.memImage.size());
        for (size_t i = 0; i < n; ++i) {
            if (res.memImage[i] != ref.memImage[i]) {
                detail += "; first divergence at " +
                          hex(ref.memImage[i].first);
                break;
            }
        }
        out.push_back({"oracle-image", backend, std::move(detail)});
    }
    if (res.memCommits.size() != ref.committedMemOps) {
        out.push_back(
            {"commit-count", backend,
             std::to_string(res.memCommits.size()) +
                 " committed mem ops, region requires " +
                 std::to_string(ref.committedMemOps)});
    }

    if (must.empty())
        return;
    // Commit sequence per (invocation, op), indexed by
    // invocation * numOps + op: both are dense and small.
    const uint64_t num_ops = region.numOps();
    seq.assign(invocations * num_ops, CommitSlot{});
    for (size_t k = 0; k < res.memCommits.size(); ++k) {
        const MemCommit &c = res.memCommits[k];
        seq[c.invocation * num_ops + c.op] = {k, c.forwarded};
    }
    for (const auto &[older, younger] : must) {
        for (uint64_t inv = 0; inv < invocations; ++inv) {
            const CommitSlot &o = seq[inv * num_ops + older];
            const CommitSlot &y = seq[inv * num_ops + younger];
            if (o.seq == SIZE_MAX || y.seq == SIZE_MAX)
                continue; // commit-count check already fired
            // A forwarded load never touched memory; the forward edge
            // itself is the ordering.
            if (o.forwarded || y.forwarded)
                continue;
            if (o.seq > y.seq) {
                out.push_back(
                    {"must-order", backend,
                     "MUST pair op" + std::to_string(older) + " -> op" +
                         std::to_string(younger) +
                         " committed out of order in invocation " +
                         std::to_string(inv)});
                return; // one witness per run is enough
            }
        }
    }
}

} // namespace

std::vector<FuzzMismatch>
checkRegion(const Region &region, const FuzzOptions &opts)
{
    std::vector<FuzzMismatch> out;

    const ReferenceResult ref = referenceExecute(region, opts.invocations);

    const AliasAnalysisResult analysis = runAliasPipeline(region);
    const uint64_t violations =
        countSoundnessViolations(region, analysis.matrix,
                                 opts.invocations);
    if (violations != 0) {
        out.push_back({"soundness", "analysis",
                       std::to_string(violations) +
                           " NO-labeled pair(s) overlapped dynamically"});
    }

    const MdeSet clean = insertMdes(region, analysis.matrix);
    const std::optional<MdeSet> faulty =
        applyFault(region, clean, opts.fault);
    const MdeSet &mdes = faulty ? *faulty : clean;

    const auto must = mustPairs(analysis.matrix);

    SimConfig cfg;
    cfg.invocations = opts.invocations;
    cfg.recordMemTrace = true;
    // Every run below shares the grid and network, so one placement
    // and one firing plan serve them all.
    const Placement placement(region);
    const SimPlan plan(region, placement, cfg.net);

    // Worker-thread-local hierarchy pool: it survives across runs and
    // cases, so hierarchy construction does not dominate every run.
    thread_local HierarchyPool pool;
    std::vector<CommitSlot> seq;
    const auto run = [&](BackendKind kind, const SimConfig &c,
                         const std::string &label) {
        SimResult result = simulate(plan, mdes, kind, c, pool);
        checkRun(region, ref, result, label, opts.invocations, must, seq,
                 out);
        return result;
    };
    // The historical check order: the OPT-LSQ bank sweep, then
    // NACHOS-SW, then NACHOS.
    for (uint32_t banks : opts.lsqBankSweep) {
        SimConfig lsq_cfg = cfg;
        lsq_cfg.lsq.banks = banks;
        run(BackendKind::OptLsq, lsq_cfg,
            "lsq[banks=" + std::to_string(banks) + "]");
    }
    const SimResult sw = run(BackendKind::NachosSw, cfg, "nachos-sw");
    const SimResult hw = run(BackendKind::Nachos, cfg, "nachos");

    // A comparator station with F MAY parents performs F serialized
    // address checks after its own (possibly data-dependent) address
    // resolves; when every parent completed early, NACHOS-SW's tokens
    // have long arrived and that O(F) tail is pure overhead relative
    // to SW. Bound it by the region's worst station fan-in plus a few
    // base cycles of compare+arbitration latency, per invocation.
    uint64_t max_fanin = 0;
    for (uint64_t f : mdes.mayFanIns(region))
        max_fanin = std::max(max_fanin, f);
    const uint64_t slack =
        (kMetamorphicSlackPerInvocation + max_fanin) * opts.invocations;
    if (hw.cycles > sw.cycles + slack) {
        out.push_back({"metamorphic-cycles", "nachos",
                       "NACHOS took " + std::to_string(hw.cycles) +
                           " cycles, NACHOS-SW only " +
                           std::to_string(sw.cycles) + " (slack " +
                           std::to_string(slack) +
                           "): runtime checks must not lose to "
                           "compiler serialization"});
    }

    return out;
}

FuzzCaseOutcome
runFuzzCase(uint64_t seed, const FuzzOptions &opts)
{
    FuzzCaseOutcome outcome;
    outcome.seed = seed;

    const Region region = generateRegion(seed, opts.gen);
    outcome.mismatches = checkRegion(region, opts);
    if (outcome.mismatches.empty())
        return outcome;

    outcome.failed = true;
    outcome.opsBeforeShrink = region.numOps();
    outcome.opsAfterShrink = region.numOps();

    if (opts.shrinkFailures) {
        FuzzOptions inner = opts;
        inner.shrinkFailures = false;
        const FailurePredicate pred = [&inner](const Region &candidate) {
            return !checkRegion(candidate, inner).empty();
        };
        const Region shrunk = shrinkRegion(region, pred);
        outcome.opsAfterShrink = shrunk.numOps();
        outcome.reproducer = regionToString(shrunk);
    } else {
        outcome.reproducer = regionToString(region);
    }
    return outcome;
}

FuzzSummary
runFuzz(uint64_t start_seed, uint64_t num_seeds, const FuzzOptions &opts,
        unsigned threads, uint64_t max_failures,
        const std::function<void(uint64_t, uint64_t)> &progress)
{
    FuzzSummary summary;
    ThreadPool pool(std::max(1u, threads));
    // Seeds are handed to workers in groups, not one job per seed:
    // a group amortizes ThreadPool dispatch and keeps each worker's
    // thread-local hierarchy pool hot across consecutive cases. Groups
    // preserve seed order within a chunk, so results are deterministic
    // at any thread count.
    const uint64_t group = 8;
    const uint64_t chunk =
        std::max<uint64_t>(32, uint64_t{threads} * 8) * group;
    uint64_t next = start_seed;
    const uint64_t end = start_seed + num_seeds;

    while (next < end && summary.failures < max_failures) {
        const uint64_t n = std::min(chunk, end - next);
        std::vector<std::pair<uint64_t, uint64_t>> groups;
        for (uint64_t i = 0; i < n; i += group)
            groups.emplace_back(next + i, std::min(group, n - i));
        next += n;

        std::vector<std::vector<FuzzCaseOutcome>> outcomes = parallelMap(
            pool, groups,
            [&opts](const std::pair<uint64_t, uint64_t> &g, size_t) {
                std::vector<FuzzCaseOutcome> out;
                out.reserve(g.second);
                for (uint64_t s = g.first; s < g.first + g.second; ++s)
                    out.push_back(runFuzzCase(s, opts));
                return out;
            });
        for (std::vector<FuzzCaseOutcome> &grp : outcomes) {
            for (FuzzCaseOutcome &o : grp) {
                ++summary.cases;
                if (!o.failed)
                    continue;
                ++summary.failures;
                if (summary.failed.size() < max_failures)
                    summary.failed.push_back(std::move(o));
            }
        }
        if (progress)
            progress(summary.cases, summary.failures);
    }
    return summary;
}

} // namespace testing
} // namespace nachos
