/**
 * @file
 * nachos_sweep: declarative design-space sweeps over the memory
 * system, with a resumable JSONL result store and Pareto reports.
 *
 *   nachos_sweep expand --spec FILE [--store FILE]
 *   nachos_sweep run    --spec FILE --store FILE
 *                       [--socket PATH | --tcp HOST:PORT | --in-process]
 *                       [--limit N] [--window N]
 *   nachos_sweep report --store FILE
 *   nachos_sweep verify --store FILE [--sample N]
 *
 * expand  prints every point of the spec (id per line) and a summary;
 *         with --store, already-completed points are marked.
 * run     executes the pending points — through a live nachosd by
 *         default (bulk-class, pipelined), or fully in-process with
 *         --in-process — appending one store record per point. Safe
 *         to kill and re-run: completed points are never re-issued.
 *         A point its backend cannot tell apart from an earlier or
 *         stored one (e.g. a NACHOS point differing only in lsqBanks)
 *         is filled from that result instead of simulated; the
 *         summary line counts these fills as "reused" (part of "run").
 * report  renders Pareto frontiers and per-axis sensitivity tables
 *         from the store (deterministic text; see sweep/report.hh).
 * verify  recomputes every --sample'th record in-process, simulating
 *         its own point unprojected, and compares the whole stored
 *         summary (cycles, cycles/invocation, MLP, load digest,
 *         energy) — the cheap standing answer to "did the daemon
 *         path drift from direct execution?" and the independent
 *         check of every filled record.
 *
 * Exit codes: 0 success, 1 usage/IO/connection failure, 2 the run had
 * failed points or verify found a mismatch.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "harness/region_cache.hh"
#include "service/client.hh"
#include "support/parse.hh"
#include "sweep/orchestrator.hh"
#include "sweep/report.hh"

using namespace nachos;

namespace {

struct Options
{
    std::string command;
    std::string specPath;
    std::string storePath;
    std::string socketPath = "/tmp/nachos.sock";
    std::string tcpHost;
    uint16_t tcpPort = 0;
    bool inProcess = false;
    size_t limit = 0;
    uint32_t window = 16;
    size_t sample = 1;
};

[[noreturn]] void
usageError(const std::string &message)
{
    std::cerr
        << "nachos_sweep: " << message << "\n"
        << "usage: nachos_sweep expand --spec FILE [--store FILE]\n"
           "       | run --spec FILE --store FILE\n"
           "             [--socket PATH | --tcp HOST:PORT | "
           "--in-process]\n"
           "             [--limit N] [--window N]\n"
           "       | report --store FILE\n"
           "       | verify --store FILE [--sample N]\n";
    std::exit(1);
}

/** parseDecimal, with a usage error for a bad value. */
uint64_t
parseU64(const std::string &flag, const char *value, uint64_t min = 0,
         uint64_t max = UINT64_MAX)
{
    const std::optional<uint64_t> n = parseDecimal(value, min, max);
    if (!n)
        usageError("invalid " + flag + " value '" + value + "'");
    return *n;
}

Options
parseArgs(int argc, char *argv[])
{
    Options opt;
    int i = 1;
    auto next = [&](const std::string &flag) -> const char * {
        if (i + 1 >= argc)
            usageError(flag + " requires a value");
        return argv[++i];
    };
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--spec") {
            opt.specPath = next(arg);
        } else if (arg == "--store") {
            opt.storePath = next(arg);
        } else if (arg == "--socket") {
            opt.socketPath = next(arg);
        } else if (arg == "--tcp") {
            const std::string spec = next(arg);
            const size_t colon = spec.rfind(':');
            if (colon == std::string::npos)
                usageError("--tcp wants HOST:PORT");
            opt.tcpHost = spec.substr(0, colon);
            opt.tcpPort = static_cast<uint16_t>(
                parseU64("--tcp port", spec.substr(colon + 1).c_str(),
                         1, UINT16_MAX));
        } else if (arg == "--in-process") {
            opt.inProcess = true;
        } else if (arg == "--limit") {
            opt.limit = parseU64(arg, next(arg));
        } else if (arg == "--window") {
            opt.window = static_cast<uint32_t>(
                parseU64(arg, next(arg), 1, UINT32_MAX));
        } else if (arg == "--sample") {
            opt.sample = parseU64(arg, next(arg), 1);
        } else if (arg == "--help" || arg == "-h") {
            usageError("help");
        } else if (!arg.empty() && arg[0] == '-') {
            usageError("unknown flag '" + arg + "'");
        } else if (opt.command.empty()) {
            opt.command = arg;
        } else {
            usageError("unexpected argument '" + arg + "'");
        }
    }
    if (opt.command.empty())
        usageError("a command is required");
    return opt;
}

SweepSpec
loadSpec(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        std::cerr << "nachos_sweep: cannot open spec '" << path
                  << "'\n";
        std::exit(1);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    JsonValue tree;
    const JsonParseStatus parsed = parseJson(buffer.str(), tree);
    if (!parsed.ok) {
        std::cerr << "nachos_sweep: " << path << ": " << parsed.error
                  << " (byte " << parsed.errorOffset << ")\n";
        std::exit(1);
    }
    SweepSpec spec;
    CodecError err;
    if (!decodeSweepSpec(tree, spec, err)) {
        std::cerr << "nachos_sweep: " << path << ": [" << err.code
                  << "] " << err.message << "\n";
        std::exit(1);
    }
    return spec;
}

std::vector<SweepRecord>
loadRecords(const std::string &path)
{
    SweepStore store(path);
    SweepLoadResult loaded;
    std::string error;
    if (!store.load(loaded, &error)) {
        std::cerr << "nachos_sweep: " << error << "\n";
        std::exit(1);
    }
    if (loaded.tornTail)
        std::cerr << "nachos_sweep: note: ignored a torn final record "
                     "in '"
                  << path << "'\n";
    return std::move(loaded.records);
}

int
cmdExpand(const Options &opt)
{
    const SweepSpec spec = loadSpec(opt.specPath);
    const std::vector<SweepPoint> points = expandSweep(spec);
    std::unordered_set<uint64_t> done;
    if (!opt.storePath.empty())
        done = completedHashes(loadRecords(opt.storePath));
    size_t completed = 0;
    for (const SweepPoint &p : points) {
        const bool has = done.count(p.hash) != 0;
        completed += has ? 1 : 0;
        std::cout << (has ? "done    " : "pending ") << p.id << "\n";
    }
    std::cout << "sweep '" << spec.name << "': " << points.size()
              << " points";
    if (!opt.storePath.empty())
        std::cout << ", " << completed << " done, "
                  << points.size() - completed << " pending";
    std::cout << "\n";
    return 0;
}

int
cmdRun(const Options &opt)
{
    const SweepSpec spec = loadSpec(opt.specPath);
    const std::vector<SweepPoint> points = expandSweep(spec);
    SweepStore store(opt.storePath);
    SweepRunOptions options;
    options.limit = opt.limit;
    options.window = opt.window;
    options.onPoint = [](const std::string &id, size_t i,
                         size_t total) {
        std::cerr << "[" << i + 1 << "/" << total << "] " << id << "\n";
    };

    SweepRunStats stats;
    std::string error;
    bool ok = false;
    if (opt.inProcess) {
        ok = runSweepInProcess(points, store, options, stats, &error);
    } else {
        std::unique_ptr<ServiceClient> client =
            opt.tcpPort
                ? ServiceClient::connectTcp(opt.tcpHost, opt.tcpPort,
                                            &error)
                : ServiceClient::connectUnix(opt.socketPath, &error);
        if (!client) {
            std::cerr << "nachos_sweep: " << error << "\n";
            return 1;
        }
        ok = runSweepOverDaemon(points, store, *client, options, stats,
                                &error);
    }
    if (!ok) {
        std::cerr << "nachos_sweep: " << error << "\n";
        return 1;
    }
    std::cout << "sweep '" << spec.name << "': " << stats.expanded
              << " points, " << stats.skipped << " already done, "
              << stats.ran << " run, " << stats.reused << " reused, "
              << stats.failed << " failed\n";
    return stats.failed ? 2 : 0;
}

int
cmdReport(const Options &opt)
{
    std::cout << renderSweepReport(loadRecords(opt.storePath));
    return 0;
}

int
cmdVerify(const Options &opt)
{
    const std::vector<SweepRecord> records = loadRecords(opt.storePath);
    RegionCache cache(16);
    HierarchyPool pool;
    size_t checked = 0, mismatched = 0;
    for (size_t i = 0; i < records.size(); i += opt.sample) {
        ++checked;
        const std::string bad = verifySweepRecord(records[i], cache, pool);
        if (!bad.empty()) {
            ++mismatched;
            std::cerr << bad << "\n";
        }
    }
    std::cout << "verified " << checked << " of " << records.size()
              << " records, " << mismatched << " mismatched\n";
    return mismatched ? 2 : 0;
}

} // namespace

int
main(int argc, char *argv[])
{
    const Options opt = parseArgs(argc, argv);
    if (opt.command == "expand") {
        if (opt.specPath.empty())
            usageError("expand requires --spec");
        return cmdExpand(opt);
    }
    if (opt.command == "run") {
        if (opt.specPath.empty() || opt.storePath.empty())
            usageError("run requires --spec and --store");
        return cmdRun(opt);
    }
    if (opt.command == "report") {
        if (opt.storePath.empty())
            usageError("report requires --store");
        return cmdReport(opt);
    }
    if (opt.command == "verify") {
        if (opt.storePath.empty())
            usageError("verify requires --store");
        return cmdVerify(opt);
    }
    usageError("unknown command '" + opt.command + "'");
}
