/**
 * @file
 * The nachosd binary: parse flags, start the daemon, then sleep until
 * SIGINT/SIGTERM or a `shutdown` request arrives and drain cleanly
 * (every admitted job still gets its response before exit 0).
 *
 *   nachosd --socket /tmp/nachos.sock [--tcp-port 9377]
 *           [--workers N] [--queue-capacity N]
 *           [--bulk-queue-capacity N] [--region-cache N]
 *           [--default-timeout-ms N] [--quiet]
 *
 * --workers is the number of run-to-completion workers; all of them
 * claim from the daemon's one job queue, and each owns a hierarchy
 * pool. --queue-capacity and --bulk-queue-capacity bound that queue's
 * interactive and bulk rings daemon-wide. --region-cache 0 builds
 * every job's front end fresh (the cache-off A/B baseline).
 */

#include <csignal>
#include <iostream>
#include <thread>

#include "service/daemon.hh"
#include "support/logging.hh"
#include "support/parse.hh"

namespace {

void
usage(std::ostream &os)
{
    os << "usage: nachosd --socket PATH [--tcp-port N] [--workers N]\n"
          "               [--queue-capacity N] [--bulk-queue-capacity N]\n"
          "               [--region-cache N] [--default-timeout-ms N]\n"
          "               [--quiet]\n";
}

uint64_t
parseCount(const char *flag, const char *value, uint64_t min,
           uint64_t max)
{
    const std::optional<uint64_t> n = nachos::parseDecimal(value, min, max);
    if (!n)
        NACHOS_FATAL("invalid ", flag, " value '", value, "'");
    return *n;
}

} // namespace

int
main(int argc, char *argv[])
{
    nachos::DaemonConfig config;
    config.socketPath = "/tmp/nachos.sock";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                NACHOS_FATAL(flag, " requires a value");
            return argv[++i];
        };
        if (arg == "--socket") {
            config.socketPath = value("--socket");
        } else if (arg == "--tcp-port") {
            config.tcpPort = static_cast<uint16_t>(
                parseCount("--tcp-port", value("--tcp-port"), 1, 65535));
        } else if (arg == "--workers") {
            config.workers = static_cast<unsigned>(
                parseCount("--workers", value("--workers"), 1, 4096));
        } else if (arg == "--queue-capacity") {
            config.queueCapacity = parseCount(
                "--queue-capacity", value("--queue-capacity"), 1,
                1 << 20);
        } else if (arg == "--bulk-queue-capacity") {
            config.bulkQueueCapacity = parseCount(
                "--bulk-queue-capacity",
                value("--bulk-queue-capacity"), 1, 1 << 20);
        } else if (arg == "--region-cache") {
            config.regionCacheEntries = parseCount(
                "--region-cache", value("--region-cache"), 0, 1 << 20);
        } else if (arg == "--default-timeout-ms") {
            config.defaultTimeoutMillis =
                parseCount("--default-timeout-ms",
                           value("--default-timeout-ms"), 1,
                           24ull * 3600 * 1000);
        } else if (arg == "--quiet") {
            nachos::setQuiet(true);
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            usage(std::cerr);
            NACHOS_FATAL("unknown argument '", arg, "'");
        }
    }

    // Block the shutdown signals in every thread the daemon will
    // spawn; a dedicated thread collects them via sigwait.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    nachos::Daemon daemon(config);
    std::string error;
    if (!daemon.start(&error)) {
        std::cerr << "nachosd: " << error << "\n";
        return 1;
    }
    nachos::inform("nachosd listening on ", config.socketPath,
                   config.tcpPort ? " and tcp port " : "",
                   config.tcpPort ? std::to_string(config.tcpPort)
                                  : std::string(),
                   " (", config.workers, " workers, rings ",
                   config.queueCapacity, "/", config.bulkQueueCapacity,
                   ", cache ", config.regionCacheEntries, ")");

    // Detached on purpose: sigwait has no cancellation point, and the
    // process is exiting when this thread still blocks.
    std::thread([&daemon, signals] {
        int sig = 0;
        if (sigwait(&signals, &sig) == 0)
            daemon.requestStop();
    }).detach();

    daemon.waitUntilStopRequested();
    nachos::inform("nachosd draining...");
    daemon.drain();
    nachos::inform("nachosd drained, exiting");
    return 0;
}
