/**
 * @file
 * Differential fuzzer CLI. Generates seeded random regions, runs each
 * through the reference oracle and all three ordering backends
 * (OPT-LSQ bank sweep, NACHOS-SW, NACHOS), and cross-checks load
 * values, memory images, commit counts, MUST-pair commit order, and
 * the NACHOS-vs-NACHOS-SW cycle invariant. Failing cases are shrunk
 * and written as serialized reproducers.
 *
 * Typical uses:
 *
 *   nachos_fuzz --seeds 10000 --threads 8
 *   nachos_fuzz --seeds 500 --profile zero-store
 *   nachos_fuzz --seeds 200 --inject drop-order --expect-failure
 *   nachos_fuzz --seeds 1 --start 421337 --corpus-out tests/testing/corpus
 *
 * Exit status: 0 when the run matched expectations (no mismatch, or
 * --expect-failure and at least one mismatch), 1 otherwise.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "ir/serialize.hh"
#include "support/logging.hh"
#include "support/parse.hh"
#include "support/thread_pool.hh"
#include "testing/diff_fuzzer.hh"

using namespace nachos;
using namespace nachos::testing;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: nachos_fuzz [options]\n"
        "  --seeds N          number of seeds to fuzz (default 1000)\n"
        "  --start N          first seed (default 0)\n"
        "  --invocations N    invocations per simulation (default 6)\n"
        "  --threads N        worker threads (default 1)\n"
        "  --max-failures N   stop after N failing cases (default 8)\n"
        "  --profile NAME     generator profile: default, store-heavy,\n"
        "                     zero-store, single-op, negative-stride,\n"
        "                     oob-2d, opaque-only\n"
        "  --inject FAULT     none, drop-order, drop-may, drop-forward\n"
        "  --expect-failure   exit 0 iff at least one case fails\n"
        "                     (mutation self-test mode)\n"
        "  --no-shrink        keep failing regions unshrunk\n"
        "  --corpus-out DIR   write reproducers to DIR/seed-N.region\n"
        "  --dump-regions DIR write EVERY case's region to DIR (corpus\n"
        "                     curation; independent of pass/fail)\n");
}

/** A decimal flag value in [min, max]; anything else is fatal. */
uint64_t
parseCount(const char *flag, const char *value, uint64_t min = 0,
           uint64_t max = UINT64_MAX)
{
    if (value == nullptr)
        NACHOS_FATAL(flag, " requires a value");
    const std::optional<uint64_t> n = parseDecimal(value, min, max);
    if (!n)
        NACHOS_FATAL("invalid ", flag, " value '", value, "'");
    return *n;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seeds = 1000;
    uint64_t start = 0;
    unsigned threads = 1;
    uint64_t max_failures = 8;
    bool expect_failure = false;
    std::string corpus_out;
    std::string dump_dir;
    std::string profile = "default";
    FuzzOptions opts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--seeds") {
            seeds = parseCount("--seeds", next), ++i;
        } else if (arg == "--start") {
            start = parseCount("--start", next), ++i;
        } else if (arg == "--invocations") {
            opts.invocations = parseCount("--invocations", next), ++i;
        } else if (arg == "--threads") {
            threads = static_cast<unsigned>(parseCount(
                          "--threads", next, 1, ThreadPool::kMaxThreads)),
            ++i;
        } else if (arg == "--max-failures") {
            max_failures = parseCount("--max-failures", next), ++i;
        } else if (arg == "--profile") {
            if (next == nullptr)
                NACHOS_FATAL("--profile requires a value");
            profile = next, ++i;
        } else if (arg == "--inject") {
            if (next == nullptr)
                NACHOS_FATAL("--inject requires a value");
            opts.fault = faultByName(next), ++i;
        } else if (arg == "--expect-failure") {
            expect_failure = true;
        } else if (arg == "--no-shrink") {
            opts.shrinkFailures = false;
        } else if (arg == "--corpus-out") {
            if (next == nullptr)
                NACHOS_FATAL("--corpus-out requires a value");
            corpus_out = next, ++i;
        } else if (arg == "--dump-regions") {
            if (next == nullptr)
                NACHOS_FATAL("--dump-regions requires a value");
            dump_dir = next, ++i;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return 1;
        }
    }

    opts.gen = profileByName(profile);
    if (opts.invocations > opts.gen.maxInvocations)
        NACHOS_FATAL("--invocations ", opts.invocations,
                     " exceeds the generator's address-safety horizon (",
                     opts.gen.maxInvocations, ")");

    std::printf("fuzzing %llu seeds from %llu  (profile=%s inject=%s "
                "threads=%u invocations=%llu)\n",
                static_cast<unsigned long long>(seeds),
                static_cast<unsigned long long>(start), profile.c_str(),
                faultName(opts.fault), threads,
                static_cast<unsigned long long>(opts.invocations));

    if (!dump_dir.empty()) {
        // Corpus curation: write every case's region (generation is
        // deterministic, so this matches what the fuzzer will run).
        for (uint64_t s = start; s < start + seeds; ++s) {
            const Region region = generateRegion(s, opts.gen);
            const std::string path =
                dump_dir + "/seed-" + std::to_string(s) + ".region";
            std::ofstream os(path);
            if (!os)
                NACHOS_FATAL("cannot write region '", path, "'");
            os << regionToString(region);
        }
        std::printf("dumped %llu region(s) to %s\n",
                    static_cast<unsigned long long>(seeds),
                    dump_dir.c_str());
    }

    const FuzzSummary summary = runFuzz(
        start, seeds, opts, threads, max_failures,
        [&](uint64_t done, uint64_t failures) {
            std::printf("  %llu/%llu cases, %llu failure(s)\r",
                        static_cast<unsigned long long>(done),
                        static_cast<unsigned long long>(seeds),
                        static_cast<unsigned long long>(failures));
            std::fflush(stdout);
        });
    std::printf("\n");

    for (const FuzzCaseOutcome &o : summary.failed) {
        std::printf("seed %llu FAILED (%zu -> %zu ops after shrink):\n",
                    static_cast<unsigned long long>(o.seed),
                    o.opsBeforeShrink, o.opsAfterShrink);
        for (const FuzzMismatch &m : o.mismatches) {
            std::printf("  [%s] %s: %s\n", m.backend.c_str(),
                        m.check.c_str(), m.detail.c_str());
        }
        if (!corpus_out.empty()) {
            const std::string path = corpus_out + "/seed-" +
                                     std::to_string(o.seed) + ".region";
            std::ofstream os(path);
            if (!os)
                NACHOS_FATAL("cannot write reproducer '", path, "'");
            os << o.reproducer;
            std::printf("  reproducer: %s\n", path.c_str());
        }
    }

    std::printf("%llu/%llu cases failed\n",
                static_cast<unsigned long long>(summary.failures),
                static_cast<unsigned long long>(summary.cases));

    if (expect_failure) {
        if (summary.failures == 0) {
            std::printf("expected at least one failure (self-test): "
                        "the checker missed the injected fault\n");
            return 1;
        }
        std::printf("injected fault detected after %llu case(s)\n",
                    static_cast<unsigned long long>(summary.cases));
        return 0;
    }
    return summary.failures == 0 ? 0 : 1;
}
