/**
 * @file
 * Repository benchmark binary:
 *
 *   nachos_perfbench --workload suite|fuzz|serve --seed N
 *                    --seconds S --trace 0|1
 *
 * Prints human-readable lines, then one JSON result line:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones; with --trace 1 the per-layer ones,
 * and a Chrome trace lands under .bench_run/. Exits 1 when any output
 * check failed, 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.hh"

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "nachos_perfbench: %s\nusage: nachos_perfbench --workload "
                 "suite|fuzz|serve --seed N --seconds S --trace 0|1\n",
                 msg);
    std::exit(2);
}

uint64_t
parseU64(const std::string &text, const char *what)
{
    try {
        size_t used = 0;
        const unsigned long long v = std::stoull(text, &used);
        if (used == text.size() && text[0] != '-')
            return v;
    } catch (const std::exception &) {
    }
    usage((std::string("bad value for ") + what + ": " + text).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            opts.workload = value;
        else if (arg == "--seed")
            opts.seed = parseU64(value, "--seed");
        else if (arg == "--seconds")
            opts.seconds = double(parseU64(value, "--seconds"));
        else if (arg == "--trace")
            opts.trace = parseU64(value, "--trace") != 0;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (opts.seconds < 1 || opts.seconds > 600)
        usage("--seconds must be between 1 and 600");

    std::filesystem::create_directories(".bench_run");
    perfbench::Report report;
    if (opts.workload == "suite")
        report = perfbench::runSuiteWorkload(opts);
    else if (opts.workload == "fuzz")
        report = perfbench::runFuzzWorkload(opts);
    else if (opts.workload == "serve")
        report = perfbench::runServeWorkload(opts);
    else
        usage(("unknown workload '" + opts.workload + "'").c_str());

    perfbench::printReport(opts, report);
    return report.correct && report.failed == 0 ? 0 : 1;
}
