/**
 * @file
 * Verification tool: run the repository's two anchor invariants on any
 * suite workload (or all of them) and report verdicts —
 *
 *  1. label soundness: NO-labeled pairs never overlap dynamically;
 *  2. golden equivalence: every ordering backend reproduces a strict
 *     program-order execution's load values and memory image.
 *
 *   $ ./verify_workload bzip2
 *   $ ./verify_workload --all
 */

#include <cstring>
#include <iostream>

#include "analysis/pipeline.hh"
#include "cgra/simulator.hh"
#include "mde/inserter.hh"
#include "support/logging.hh"
#include "testing/reference.hh"
#include "workloads/suite.hh"

using namespace nachos;

namespace {

bool
verify(const BenchmarkInfo &info)
{
    bool ok = true;
    for (uint32_t path = 0; path < 5; ++path) {
        SynthesisOptions opts;
        opts.pathIndex = path;
        Region r = synthesizeRegion(info, opts);
        AliasAnalysisResult res = runAliasPipeline(r);

        const uint64_t violations =
            countSoundnessViolations(r, res.matrix, 32);
        if (violations != 0) {
            std::cout << "  [FAIL] " << r.name() << ": " << violations
                      << " unsound NO labels\n";
            ok = false;
            continue;
        }

        MdeSet mdes = insertMdes(r, res.matrix);
        testing::ReferenceResult golden = testing::referenceExecute(r, 6);
        SimConfig cfg;
        cfg.invocations = 6;
        for (BackendKind kind :
             {BackendKind::OptLsq, BackendKind::NachosSw,
              BackendKind::Nachos}) {
            SimResult sim = simulate(r, mdes, kind, cfg);
            if (sim.loadValueDigest != golden.loadValueDigest ||
                sim.memImage != golden.memImage) {
                std::cout << "  [FAIL] " << r.name() << " under "
                          << backendName(kind)
                          << ": diverged from program order\n";
                ok = false;
            }
        }
    }
    std::cout << (ok ? "  [ OK ] " : "  [FAIL] ") << info.name
              << " (5 paths x 3 backends + soundness)\n";
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    if (argc < 2) {
        std::cout << "usage: verify_workload <workload>|--all\n";
        return 0;
    }
    bool all_ok = true;
    if (std::strcmp(argv[1], "--all") == 0) {
        for (const BenchmarkInfo &info : benchmarkSuite())
            all_ok &= verify(info);
    } else {
        all_ok = verify(benchmarkByName(argv[1]));
    }
    std::cout << (all_ok ? "\nall checks passed\n"
                         : "\nCHECKS FAILED\n");
    return all_ok ? 0 : 1;
}
