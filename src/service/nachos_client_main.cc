/**
 * @file
 * nachos_client: submit work to a running nachosd and print the
 * responses, human-readably by default or as raw JSON lines (--raw).
 *
 *   nachos_client [--socket PATH | --tcp HOST:PORT] [--raw] COMMAND
 *
 *   run --workload NAME [--path N] [--seed N] [--backend lsq|sw|nachos]...
 *       [--invocations N] [--machine KEY=VALUE]...
 *       [--timeout-ms N] [--sleep-ms N]
 *       [--class interactive|bulk]
 *   suite [--path N] [--seed N] [--backend ...]... [--invocations N]
 *   metrics | ping | shutdown
 *
 * --direct (run only) executes the request in-process through the
 * daemon's own request parser and response writers and prints the
 * exact response line a daemon would send — result or error — the
 * reference side of the daemon-vs-direct byte-equivalence check in
 * tools/check_determinism.sh.
 *
 * Field values are passed to the daemon verbatim — validation happens
 * server-side, so a typoed workload demonstrates the daemon's typed
 * error responses instead of being masked client-side.
 *
 * Exit codes: 0 success, 1 connection/usage failure, 2 the daemon
 * answered with an error response.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <vector>

#include "harness/runner.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "support/parse.hh"
#include "support/table.hh"
#include "workloads/benchmark_info.hh"

using namespace nachos;

namespace {

struct Options
{
    std::string socketPath = "/tmp/nachos.sock";
    std::string tcpHost;
    uint16_t tcpPort = 0;
    bool raw = false;
    std::string command;
    // run/suite fields (strings pass through unvalidated on purpose)
    std::string workload;
    uint64_t pathIndex = 0;
    bool hasPath = false;
    uint64_t seed = 0;
    std::vector<std::string> backends;
    uint64_t invocations = 0;
    uint64_t timeoutMillis = 0;
    uint64_t sleepMillis = 0;
    std::string klass;
    bool direct = false;
    /** Machine overrides as ordered KEY=VALUE pairs, unvalidated —
     *  the daemon's codec is the contract being exercised. */
    std::vector<std::pair<std::string, uint64_t>> machine;
};

[[noreturn]] void
usageError(const std::string &message)
{
    std::cerr << "nachos_client: " << message << "\n"
              << "usage: nachos_client [--socket PATH | --tcp "
                 "HOST:PORT] [--raw] \\\n"
                 "         run --workload NAME [--path N] [--seed N] "
                 "[--backend B]... \\\n"
                 "             [--invocations N] [--machine "
                 "KEY=VALUE]... \\\n"
                 "             [--timeout-ms N] [--sleep-ms N] \\\n"
                 "             [--class interactive|bulk] [--direct]\n"
                 "       | suite [--path N] [--seed N] [--backend "
                 "B]... [--invocations N]\n"
                 "       | metrics | ping | shutdown\n";
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
        if (arg == "--socket") {
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
        } else if (arg == "--raw") {
            opt.raw = true;
        } else if (arg == "--workload") {
            opt.workload = next(arg);
        } else if (arg == "--path") {
            opt.pathIndex = parseU64(arg, next(arg));
            opt.hasPath = true;
        } else if (arg == "--seed") {
            opt.seed = parseU64(arg, next(arg));
        } else if (arg == "--backend") {
            opt.backends.push_back(next(arg));
        } else if (arg == "--invocations") {
            opt.invocations = parseU64(arg, next(arg));
        } else if (arg == "--timeout-ms") {
            opt.timeoutMillis = parseU64(arg, next(arg));
        } else if (arg == "--sleep-ms") {
            opt.sleepMillis = parseU64(arg, next(arg));
        } else if (arg == "--class") {
            opt.klass = next(arg);
        } else if (arg == "--machine") {
            const std::string spec = next(arg);
            const size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0)
                usageError("--machine wants KEY=VALUE");
            opt.machine.emplace_back(
                spec.substr(0, eq),
                parseU64("--machine value",
                         spec.substr(eq + 1).c_str()));
        } else if (arg == "--direct") {
            opt.direct = true;
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

JsonValue
buildRunPayload(const Options &opt, const std::string &workload)
{
    JsonValue run = JsonValue::makeObject();
    run.set("workload", workload);
    if (opt.hasPath)
        run.set("pathIndex", opt.pathIndex);
    if (opt.seed)
        run.set("seed", opt.seed);
    if (!opt.backends.empty()) {
        JsonValue backends = JsonValue::makeArray();
        for (const std::string &b : opt.backends)
            backends.push(b);
        run.set("backends", std::move(backends));
    }
    if (opt.invocations)
        run.set("invocations", opt.invocations);
    if (opt.timeoutMillis)
        run.set("timeoutMillis", opt.timeoutMillis);
    if (opt.sleepMillis)
        run.set("sleepMillis", opt.sleepMillis);
    if (!opt.klass.empty())
        run.set("class", opt.klass);
    if (!opt.machine.empty()) {
        JsonValue machine = JsonValue::makeObject();
        for (const auto &field : opt.machine)
            machine.set(field.first, field.second);
        run.set("machine", std::move(machine));
    }
    JsonValue req = requestEnvelope(0, "run");
    req.set("run", std::move(run));
    return req;
}

/** Returns the exit code contribution of one response (0 or 2). */
int
printResponse(const Options &opt, const JsonValue &response)
{
    const JsonValue *type = response.find("type");
    const bool isError = type && type->isString() &&
                         type->str() == "error";
    if (opt.raw) {
        std::cout << dumpJson(response) << "\n";
        return isError ? 2 : 0;
    }
    if (isError) {
        const JsonValue *code = response.find("code");
        const JsonValue *message = response.find("message");
        std::cout << "error ["
                  << (code && code->isString() ? code->str() : "?")
                  << "]: "
                  << (message && message->isString() ? message->str()
                                                     : "")
                  << "\n";
        return 2;
    }
    if (type && type->isString() && type->str() == "result") {
        const JsonValue *outcome = response.find("outcome");
        OutcomeSummary summary;
        CodecError err;
        if (!outcome || !decodeOutcome(*outcome, summary, err)) {
            std::cout << "unparseable outcome: " << err.message
                      << "\n";
            return 2;
        }
        std::cout << summary.workload << " path " << summary.pathIndex
                  << " seed " << summary.seed << " ("
                  << summary.invocations << " invocations)\n"
                  << "  labels no/may/must: " << summary.labels.no
                  << "/" << summary.labels.may << "/"
                  << summary.labels.must << "  mdes o/f/m: "
                  << summary.mdeOrder << "/" << summary.mdeForward
                  << "/" << summary.mdeMay << "\n";
        for (const BackendField &backend : backendFields()) {
            const std::optional<SimSummary> &s =
                summary.*backend.summary;
            if (!s)
                continue;
            std::cout << "  " << backend.name << ": " << s->cycles
                      << " cycles (" << fmtDouble(
                             s->cyclesPerInvocation, 1)
                      << "/inv), avg mlp " << fmtDouble(s->avgMlp, 2)
                      << ", energy " << fmtDouble(s->energyTotal, 1)
                      << "\n";
        }
        return 0;
    }
    if (type && type->isString() && type->str() == "metrics") {
        const JsonValue *stats = response.find("stats");
        const JsonValue *counters =
            stats ? stats->find("counters") : nullptr;
        const JsonValue *histograms =
            stats ? stats->find("histograms") : nullptr;
        if (counters) {
            for (const auto &entry : counters->members())
                std::cout << "  " << entry.first << " = "
                          << (entry.second.isU64()
                                  ? std::to_string(
                                        entry.second.asU64())
                                  : dumpJson(entry.second))
                          << "\n";
        }
        if (histograms) {
            for (const auto &entry : histograms->members()) {
                auto field = [&](const char *name) -> uint64_t {
                    const JsonValue *f = entry.second.find(name);
                    return f && f->isU64() ? f->asU64() : 0;
                };
                std::cout << "  " << entry.first << ": count "
                          << field("count") << ", p50 "
                          << field("p50") << "us, p95 "
                          << field("p95") << "us, p99 "
                          << field("p99") << "us\n";
            }
        }
        return 0;
    }
    // pong / ok
    std::cout << (type && type->isString() ? type->str() : "?") << "\n";
    return 0;
}

} // namespace

int
main(int argc, char *argv[])
{
    const Options opt = parseArgs(argc, argv);

    if (opt.direct) {
        // In-process reference execution: the daemon's parse entry,
        // the same run, and the daemon's response writers, no daemon
        // required. The id is 1, matching the first id a connected run
        // would get, so the raw output is byte-comparable with a
        // daemon round trip.
        if (opt.command != "run")
            usageError("--direct supports only the run command");
        if (opt.workload.empty())
            usageError("run requires --workload");
        JsonValue request = buildRunPayload(opt, opt.workload);
        request.set("id", uint64_t{1});
        JsonValue tree;
        Request req;
        CodecError err;
        std::string line;
        if (!parseRequestLine(dumpJson(request), tree, req, err)) {
            appendErrorResponse(line, req.id, err.code, err.message);
        } else {
            const JobSpec &spec = req.job;
            const RunOutcome outcome =
                runWorkload(*spec.info, spec.request);
            appendResultResponse(
                line, req.id,
                summarizeOutcome(*spec.info, spec.request, outcome));
        }
        return printResponse(opt, parseWritten(line));
    }

    std::string error;
    std::unique_ptr<ServiceClient> client =
        opt.tcpPort ? ServiceClient::connectTcp(opt.tcpHost,
                                                opt.tcpPort, &error)
                    : ServiceClient::connectUnix(opt.socketPath,
                                                 &error);
    if (!client) {
        std::cerr << "nachos_client: " << error << "\n";
        return 1;
    }

    uint64_t nextId = 1;
    int exitCode = 0;
    auto roundTrip = [&](JsonValue request) {
        request.set("id", nextId++);
        std::optional<JsonValue> response = client->call(request);
        if (!response) {
            std::cerr << "nachos_client: connection closed before a "
                         "response arrived\n";
            std::exit(1);
        }
        exitCode = std::max(exitCode, printResponse(opt, *response));
    };

    if (opt.command == "run") {
        if (opt.workload.empty())
            usageError("run requires --workload");
        roundTrip(buildRunPayload(opt, opt.workload));
    } else if (opt.command == "suite") {
        // Pipeline the whole suite on this one connection, then
        // collect in submission order.
        std::vector<uint64_t> ids;
        for (const BenchmarkInfo &info : benchmarkSuite()) {
            JsonValue request = buildRunPayload(opt, info.name);
            request.set("id", nextId);
            ids.push_back(nextId++);
            if (!client->sendRequest(request)) {
                std::cerr << "nachos_client: send failed\n";
                return 1;
            }
        }
        for (const uint64_t id : ids) {
            std::optional<JsonValue> response = client->waitFor(id);
            if (!response) {
                std::cerr << "nachos_client: connection closed with "
                             "responses outstanding\n";
                return 1;
            }
            exitCode =
                std::max(exitCode, printResponse(opt, *response));
        }
    } else if (opt.command == "metrics") {
        roundTrip(requestEnvelope(0, "metrics"));
    } else if (opt.command == "ping") {
        roundTrip(requestEnvelope(0, "ping"));
    } else if (opt.command == "shutdown") {
        roundTrip(requestEnvelope(0, "shutdown"));
    } else {
        usageError("unknown command '" + opt.command + "'");
    }
    return exitCode;
}
