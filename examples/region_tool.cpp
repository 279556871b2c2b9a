/**
 * @file
 * Region tooling: save any suite workload's region in the textual
 * nachos-region format, reload it, and/or emit GraphViz DOT of its
 * dataflow graph with the inserted memory-dependence edges.
 *
 *   $ ./region_tool save parser parser.region
 *   $ ./region_tool dot parser parser.dot     # includes MDEs
 *   $ ./region_tool check parser.region       # reload + re-verify
 */

#include <cstring>
#include <fstream>
#include <iostream>

#include "analysis/pipeline.hh"
#include "ir/serialize.hh"
#include "mde/inserter.hh"
#include "support/logging.hh"
#include "testing/reference.hh"
#include "workloads/suite.hh"

using namespace nachos;

int
main(int argc, char **argv)
{
    setQuiet(true);
    if (argc < 3) {
        std::cout << "usage:\n"
                     "  region_tool save <workload> <file>\n"
                     "  region_tool dot <workload> <file>\n"
                     "  region_tool check <file>\n";
        return 0;
    }
    const std::string cmd = argv[1];

    if (cmd == "save") {
        if (argc < 4)
            NACHOS_FATAL("save needs <workload> <file>");
        Region r = synthesizeRegion(benchmarkByName(argv[2]));
        std::ofstream out(argv[3]);
        if (!out)
            NACHOS_FATAL("cannot write ", argv[3]);
        writeRegion(r, out);
        std::cout << "wrote " << r.numOps() << " ops to " << argv[3]
                  << "\n";
        return 0;
    }
    if (cmd == "dot") {
        if (argc < 4)
            NACHOS_FATAL("dot needs <workload> <file>");
        Region r = synthesizeRegion(benchmarkByName(argv[2]));
        AliasAnalysisResult res = runAliasPipeline(r);
        MdeSet mdes = insertMdes(r, res.matrix);
        std::ofstream out(argv[3]);
        if (!out)
            NACHOS_FATAL("cannot write ", argv[3]);
        dumpDotWithMdes(r, mdes, out);
        std::cout << "wrote DOT (" << mdes.size() << " MDEs) to "
                  << argv[3] << "\n";
        return 0;
    }
    if (cmd == "check") {
        std::ifstream in(argv[2]);
        if (!in)
            NACHOS_FATAL("cannot read ", argv[2]);
        Region r = readRegion(in);
        AliasAnalysisResult res = runAliasPipeline(r);
        const uint64_t violations =
            countSoundnessViolations(r, res.matrix, 32);
        testing::ReferenceResult golden = testing::referenceExecute(r, 4);
        std::cout << "region " << r.name() << ": " << r.numOps()
                  << " ops, " << r.numMemOps() << " mem ops, "
                  << res.final().all.may << " MAY pairs, "
                  << violations << " soundness violations, digest "
                  << golden.loadValueDigest << "\n";
        return violations == 0 ? 0 : 1;
    }
    NACHOS_FATAL("unknown command '", cmd, "'");
}
