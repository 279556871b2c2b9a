#include "analysis/pipeline.hh"

#include "analysis/stage1_basic.hh"

namespace nachos {

namespace {

StageSnapshot
snapshot(const AliasMatrix &matrix)
{
    const auto [all, enforced] = matrix.countsAndEnforced();
    return {all, enforced};
}

} // namespace

AliasAnalysisResult
runAliasPipeline(const Region &region, const PipelineConfig &cfg)
{
    AliasAnalysisResult result{runStage1(region), {}, {}, {}, {},
                               {},                {}, {}};
    result.afterStage1 = snapshot(result.matrix);

    if (cfg.stage2)
        result.stage2 = runStage2(region, result.matrix);
    result.afterStage2 = snapshot(result.matrix);

    if (cfg.stage3) {
        result.stage3 = runStage3(region, result.matrix);
    } else {
        // Without Stage 3, every relevant MUST/MAY pair is enforced.
        const uint32_t n =
            static_cast<uint32_t>(result.matrix.numMemOps());
        for (uint32_t i = 0; i < n; ++i) {
            for (uint32_t j = i + 1; j < n; ++j) {
                bool needs =
                    result.matrix.relevant(i, j) &&
                    result.matrix.label(i, j) != AliasLabel::No;
                result.matrix.setEnforced(i, j, needs);
            }
        }
    }
    result.afterStage3 = snapshot(result.matrix);

    if (cfg.stage4)
        result.stage4 = runStage4(region, result.matrix, cfg.stage2);
    result.afterStage4 = snapshot(result.matrix);

    return result;
}

uint64_t
countSoundnessViolations(const Region &region, const AliasMatrix &matrix,
                         uint64_t invocations)
{
    uint64_t violations = 0;
    const uint32_t n = static_cast<uint32_t>(matrix.numMemOps());
    for (uint64_t inv = 0; inv < invocations; ++inv) {
        for (uint32_t i = 0; i < n; ++i) {
            const OpId a = matrix.opOf(i);
            const uint64_t addr_a = region.evalAddr(a, inv);
            const uint64_t size_a = region.op(a).mem->accessSize;
            for (uint32_t j = i + 1; j < n; ++j) {
                if (matrix.label(i, j) != AliasLabel::No)
                    continue;
                const OpId b = matrix.opOf(j);
                const uint64_t addr_b = region.evalAddr(b, inv);
                const uint64_t size_b = region.op(b).mem->accessSize;
                const bool overlap =
                    addr_a < addr_b + size_b && addr_b < addr_a + size_a;
                if (overlap)
                    ++violations;
            }
        }
    }
    return violations;
}

} // namespace nachos
