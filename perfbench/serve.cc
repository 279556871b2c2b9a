/**
 * @file
 * `serve` workload: nachosd in process. A Daemon with the default
 * config and 2 shards serves two connections at once:
 *
 *  - interactive: an open loop at kRate requests/s on one connection,
 *    kTrialSeconds of requests per trial.
 *    Each request is a single run of one of the 27 workloads (path 0)
 *    with a small invocation count; the order is drawn from `--seed`.
 *    Requests are scheduled here, on ServiceClient, and every latency
 *    is timed from the request's due time, so a stalled sender cannot
 *    hide its own queueing; how late the sender ran is reported too.
 *  - bulk: runSweepOverDaemon on the second connection, crossing
 *    lsqBanks x l1SizeBytes over kSweepWorkloads workloads, two paths
 *    and two region seeds per round, 4 invocations per point. Every
 *    round uses new seeds, so its first point per region misses the
 *    daemon's region cache.
 *
 * Load, measured on a 4-core host shared with other tenants (2-shard
 * daemon, default config): the interactive stream alone keeps the
 * shards 14% busy, and a closed loop of the same requests (16 in
 * flight) reaches 1160-1915 req/s, so 250 req/s is about 15% of
 * interactive capacity. The sweep pipelines 16 points
 * (runSweepOverDaemon's default window), so it saturates the shards:
 * 3450-3760 points/s alone, 2570-3370 beside the interactive stream,
 * with 5-7% of region-cache lookups missing. Interactive p50/p99 read
 * 1.1-1.3/5.9-6.5 ms alone and 1.7-2.3/7.3-17.9 ms beside the sweep,
 * so the latency figures include bulk interference. A sweep point runs
 * 4 invocations, within the interactive requests' 2-9: at 20, a few
 * long coalesced groups set the interactive tail, and the p99 of ten
 * runs spread by more than a quarter of its median.
 *
 * Set-up (five times, median reported): daemon start, both
 * connections, and one interactive request per workload to fill the
 * region cache. Trials repeat until the window ends. Throughput is
 * sweep points completed per second inside a trial; latency is the
 * interactive latency. Checks: every response must be a result; the
 * first kCheckedRequests interactive
 * outcomes and the first sweep chunk must equal the in-process outcome
 * of the same request.
 */

#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "common.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "support/random.hh"
#include "sweep/orchestrator.hh"

namespace perfbench {

using namespace nachos;

namespace {

constexpr double kRate = 250;              ///< interactive requests/s
constexpr double kTrialSeconds = 4;        ///< 1000 requests per trial
constexpr uint64_t kCheckedRequests = 32;  ///< interactive outcomes checked
constexpr size_t kSweepWorkloads = 6;
constexpr size_t kSweepChunk = 64;         ///< points per sweep call
constexpr double kDrainGraceSeconds = 30;

/** A connected daemon: what each set-up builds. */
struct Served
{
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<ServiceClient> interactive;
    std::unique_ptr<ServiceClient> bulk;
};

JobSpec
interactiveSpec(const BenchmarkInfo &info, uint64_t seed,
                uint64_t invocations)
{
    JobSpec spec;
    spec.info = &info;
    spec.request.pathIndex = 0;
    spec.request.seed = seed;
    spec.request.invocationsOverride = invocations;
    return spec;
}

std::string
directOutcome(const JobSpec &spec)
{
    const RunOutcome outcome = runWorkload(*spec.info, spec.request);
    return dumpJson(
        encodeOutcome(summarizeOutcome(*spec.info, spec.request, outcome)));
}

/** Start a daemon, connect both clients, warm the region cache. */
std::optional<Served>
setUp(const std::string &socketPath, const std::vector<BenchmarkInfo> &suite,
      uint64_t interactiveSeed, Report &rep)
{
    Served s;
    DaemonConfig config;
    config.socketPath = socketPath;
    config.workers = 2;
    s.daemon = std::make_unique<Daemon>(config);
    std::string error;
    if (!s.daemon->start(&error)) {
        rep.fail("daemon start: " + error);
        return std::nullopt;
    }
    s.interactive = ServiceClient::connectUnix(socketPath, &error);
    s.bulk = ServiceClient::connectUnix(socketPath, &error);
    if (!s.interactive || !s.bulk) {
        rep.fail("connect: " + error);
        return std::nullopt;
    }
    uint64_t id = 1;
    for (const BenchmarkInfo &info : suite) {
        ++rep.attempted;
        const std::optional<JsonValue> r = s.interactive->call(
            runRequestEnvelope(id++, interactiveSpec(info, interactiveSeed, 4)));
        const JsonValue *type = r ? r->find("type") : nullptr;
        if (!type || !type->isString() || type->str() != "result")
            rep.fail("warm-up request for " + info.name + " failed");
    }
    return s;
}

/** A daemon metrics reading reduced to what the per-layer list needs. */
struct DaemonReading
{
    std::map<std::string, uint64_t> counters;
    /** histogram name -> (count, sum) */
    std::map<std::string, std::pair<double, double>> histograms;

    explicit DaemonReading(const JsonValue &snapshot)
    {
        if (const JsonValue *c = snapshot.find("counters"))
            for (const auto &[name, v] : c->members())
                counters[name] = v.isU64() ? v.asU64() : 0;
        if (const JsonValue *h = snapshot.find("histograms"))
            for (const auto &[name, v] : h->members()) {
                const JsonValue *count = v.find("count");
                const JsonValue *sum = v.find("sum");
                histograms[name] = {count ? count->asDouble() : 0,
                                    sum ? sum->asDouble() : 0};
            }
    }

    double counter(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : double(it->second);
    }

    std::pair<double, double> hist(const std::string &name) const
    {
        auto it = histograms.find(name);
        return it == histograms.end() ? std::pair<double, double>{0, 0}
                                      : it->second;
    }
};

/** Sum/count means over the window: `after` minus `before`. */
void
reportDaemonLayers(const DaemonReading &before, const DaemonReading &after,
                   Report &rep)
{
    auto delta = [&](const char *name) {
        const auto a = after.hist(name);
        const auto b = before.hist(name);
        return std::pair<double, double>{a.first - b.first,
                                         a.second - b.second};
    };
    auto mean = [](std::pair<double, double> cs) {
        return cs.first > 0 ? cs.second / cs.first : 0;
    };
    rep.set("service.queue_wait_us_mean", mean(delta("latency.queueMicros")));
    const auto synth = delta("latency.synthMicros");
    const double frontSum = synth.second +
                            delta("latency.analysisMicros").second +
                            delta("latency.mdeMicros").second;
    rep.set("service.frontend_us_mean",
            synth.first > 0 ? frontSum / synth.first : 0);
    rep.set("service.sim_us_mean", mean(delta("latency.simMicros")));
    rep.set("service.lanes_per_group", mean(delta("batch.lanesPerGroup")));
    rep.set("service.steals",
            after.counter("shard.steals") - before.counter("shard.steals"));
    const double hits =
        after.counter("cache.hits") - before.counter("cache.hits");
    const double misses =
        after.counter("cache.misses") - before.counter("cache.misses");
    rep.set("harness.cache_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0);
}

/** The bulk sweep of round `round`: fresh region seeds every round. */
std::vector<SweepPoint>
sweepRound(const std::vector<BenchmarkInfo> &suite, uint64_t seed,
           uint64_t round)
{
    SweepSpec spec;
    spec.name = "perfbench-serve";
    // Rounds walk the whole suite in a fixed order, so every seed sweeps
    // the same mix of region sizes; the seed only picks region seeds.
    for (size_t k = 0; k < kSweepWorkloads; ++k)
        spec.workloads.push_back(
            &suite[(round * kSweepWorkloads + k) % suite.size()]);
    spec.paths = {0, 1};
    const uint64_t base = 1 + (seed << 20) + 2 * round;
    spec.seeds = {base, base + 1};
    spec.invocations = 4;
    spec.axes = {{"lsqBanks", {1, 2, 4, 8}},
                 {"l1SizeBytes", {16384, 65536, 262144}}};
    return expandSweep(spec);
}

/** Records of a store with the wall-clock member cleared. */
std::vector<std::string>
storedRecords(const std::string &path, Report &rep)
{
    SweepStore store(path);
    SweepLoadResult loaded;
    std::string error;
    if (!store.load(loaded, &error))
        rep.fail("sweep store " + path + ": " + error);
    std::vector<std::string> out;
    for (SweepRecord r : loaded.records) {
        r.seconds = 0;
        out.push_back(dumpJson(encodeSweepRecord(r)));
    }
    return out;
}

/**
 * The measured part of the workload: both streams against one daemon,
 * one trial at a time. The interactive plan and the sweep cursor carry
 * over from trial to trial.
 */
class ServeSession
{
  public:
    ServeSession(Served &served, Tracer &tracer, std::vector<JobSpec> plan,
                 uint64_t seed, const std::string &storePath, Report &rep)
        : served_(served), tracer_(tracer), plan_(std::move(plan)),
          seed_(seed), storePath_(storePath), rep_(rep)
    {}

    /**
     * Send the whole plan, ids from `first` on, while the sweep runs;
     * the trial lasts as long as the plan's schedule.
     */
    Trial runTrial(uint64_t first);

    /** False once a trial lost the daemon; later trials would hang. */
    bool healthy() const { return healthy_; }

    /** Interactive outcomes kept for the correctness check, by index. */
    std::vector<std::string> checkedOutcomes =
        std::vector<std::string>(kCheckedRequests);
    /** The first sweep chunk and its records as the daemon stored them. */
    std::vector<SweepPoint> checkedPoints;
    std::vector<std::string> sweepRecords;
    std::vector<double> lagMs;

  private:
    void sweepUntil(Clock::time_point end, uint64_t &inWindow);

    Served &served_;
    Tracer &tracer_;
    const std::vector<JobSpec> plan_;
    const uint64_t seed_;
    const std::string storePath_;
    Report &rep_;
    uint64_t round_ = 0;
    std::vector<SweepPoint> roundPoints_;
    size_t roundAt_ = 0;
    bool healthy_ = true;
};

Trial
ServeSession::runTrial(uint64_t first)
{
    constexpr uint64_t idBase = 1000;
    const size_t n = plan_.size();
    const double seconds = double(n) / kRate;
    std::vector<Clock::time_point> sent(n), received(n);
    std::vector<char> ok(n, 0);
    std::atomic<size_t> answered{0};
    std::atomic<bool> receiverDone{false};
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    auto due = [&](size_t i) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(double(i) / kRate));
    };

    std::thread sender([&] {
        for (size_t i = 0; i < n; ++i) {
            std::this_thread::sleep_until(due(i));
            const uint64_t id = idBase + first + i;
            const JsonValue request = runRequestEnvelope(id, plan_[i]);
            sent[i] = Clock::now();
            Tracer::Scope span(tracer_, "client.send", id);
            if (!served_.interactive->sendRequest(request))
                break;
        }
    });
    std::thread receiver([&] {
        for (size_t got = 0; got < n; ++got) {
            std::optional<JsonValue> r = served_.interactive->readResponse();
            const Clock::time_point now = Clock::now();
            if (!r)
                break;
            const JsonValue *id = r->find("id");
            if (!id || !id->isU64() || id->asU64() < idBase + first ||
                id->asU64() - idBase - first >= n)
                continue;
            const size_t i = id->asU64() - idBase - first;
            received[i] = now;
            ++answered;
            tracer_.record("serve.request", due(i), now, id->asU64());
            const JsonValue *type = r->find("type");
            if (!type || !type->isString() || type->str() != "result")
                continue;
            ok[i] = 1;
            if (first == 0 && i < checkedOutcomes.size())
                if (const JsonValue *outcome = r->find("outcome"))
                    checkedOutcomes[i] = dumpJson(*outcome);
        }
        receiverDone = true;
    });

    uint64_t inWindow = 0;
    sweepUntil(end, inWindow);

    // A stuck daemon is drained so the receiver sees EOF instead of
    // blocking forever.
    const Clock::time_point deadline =
        end + std::chrono::seconds(int(kDrainGraceSeconds));
    sender.join();
    while (answered.load() < n && !receiverDone && Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (answered.load() < n) {
        served_.daemon->drain();
        healthy_ = false;
    }
    receiver.join();

    Trial trial;
    trial.seconds = seconds;
    trial.work = double(inWindow);
    for (size_t i = 0; i < n; ++i) {
        ++rep_.attempted;
        if (!ok[i]) {
            rep_.fail("interactive request " + std::to_string(first + i) +
                      " got no result");
            continue;
        }
        trial.latencyMs.push_back(1e3 * secondsBetween(due(i), received[i]));
        lagMs.push_back(1e3 * secondsBetween(due(i), sent[i]));
    }
    return trial;
}

void
ServeSession::sweepUntil(Clock::time_point end, uint64_t &inWindow)
{
    SweepRunOptions sweepOpts;
    sweepOpts.onPoint = [&](const std::string &, size_t, size_t) {
        if (Clock::now() <= end)
            ++inWindow;
    };
    while (Clock::now() < end) {
        if (roundAt_ >= roundPoints_.size()) {
            roundPoints_ = sweepRound(benchmarkSuite(), seed_, round_++);
            roundAt_ = 0;
        }
        const size_t stop =
            std::min(roundPoints_.size(), roundAt_ + kSweepChunk);
        const std::vector<SweepPoint> chunk(roundPoints_.begin() + roundAt_,
                                            roundPoints_.begin() + stop);
        roundAt_ = stop;
        std::filesystem::remove(storePath_);
        SweepStore store(storePath_);
        SweepRunStats stats;
        std::string error;
        bool ok = false;
        {
            Tracer::Scope span(tracer_, "sweep.chunk");
            ok = runSweepOverDaemon(chunk, store, *served_.bulk, sweepOpts,
                                    stats, &error);
        }
        store.close();
        if (!ok) {
            rep_.fail("sweep over daemon: " + error);
            healthy_ = false;
            return;
        }
        rep_.attempted += stats.ran + stats.failed;
        for (size_t i = 0; i < stats.failed; ++i)
            rep_.fail("sweep point answered with an error");
        if (checkedPoints.empty()) {
            checkedPoints = chunk;
            sweepRecords = storedRecords(storePath_, rep_);
        }
    }
}

} // namespace

Report
runServeWorkload(const Options &opts)
{
    Report rep;
    const std::vector<BenchmarkInfo> &suite = benchmarkSuite();
    const std::string tag = std::to_string(::getpid());
    const std::string socketPath = ".bench_run/nachosd-" + tag + ".sock";
    const std::string storePath = ".bench_run/sweep-" + tag + ".jsonl";
    const std::string checkPath = ".bench_run/sweep-check-" + tag + ".jsonl";
    const uint64_t interactiveSeed = 1 + opts.seed;

    std::vector<double> setupSeconds;
    std::optional<Served> served;
    for (int i = 0; i < 5; ++i) {
        // Drain the previous set-up's daemon and hand its freed memory
        // back, so the peak RSS reflects one daemon, not five.
        served.reset();
        malloc_trim(0);
        const Clock::time_point t0 = Clock::now();
        served = setUp(socketPath, suite, interactiveSeed, rep);
        setupSeconds.push_back(secondsSince(t0));
        if (!served)
            return rep;
    }
    rep.set("setup_s", median(setupSeconds));

    // The interactive plan, fixed by the seed; every trial sends it.
    const size_t perTrial = size_t(kRate * kTrialSeconds);
    Rng rng(opts.seed);
    std::vector<JobSpec> plan;
    for (size_t i = 0; i < perTrial; ++i)
        plan.push_back(interactiveSpec(suite[rng.next() % suite.size()],
                                       interactiveSeed,
                                       2 + rng.next() % 8));

    Tracer tracer(opts.trace);
    ServeSession session(*served, tracer, plan, opts.seed, storePath, rep);
    const DaemonReading before(served->daemon->metricsSnapshot());
    std::vector<Trial> trials;
    const Clock::time_point start = Clock::now();
    while (session.healthy() &&
           (secondsSince(start) + kTrialSeconds <= opts.seconds ||
            trials.size() < 3))
        trials.push_back(session.runTrial(trials.size() * perTrial));
    const DaemonReading after(served->daemon->metricsSnapshot());

    // Correctness: sampled daemon results equal in-process outcomes.
    Digest digest;
    for (size_t i = 0; i < session.checkedOutcomes.size(); ++i) {
        ++rep.attempted;
        if (session.checkedOutcomes[i] != directOutcome(plan[i]))
            rep.fail("interactive request " + std::to_string(i) +
                     " differs from the in-process outcome");
        digest.add(session.checkedOutcomes[i]);
    }
    std::filesystem::remove(checkPath);
    {
        SweepStore store(checkPath);
        SweepRunStats stats;
        std::string error;
        if (!runSweepInProcess(session.checkedPoints, store, {}, stats,
                               &error))
            rep.fail("in-process sweep: " + error);
    }
    const std::vector<std::string> direct = storedRecords(checkPath, rep);
    ++rep.attempted;
    if (direct.empty() || direct != session.sweepRecords)
        rep.fail("sweep chunk over the daemon differs from in-process");
    for (const std::string &r : session.sweepRecords)
        digest.add(r);
    rep.simDigest = digest.value();

    served.reset();
    std::filesystem::remove(storePath);
    std::filesystem::remove(checkPath);

    reportTrials(trials, "sweep points", rep);
    rep.set("peak_rss_mb", peakRssMb());
    if (opts.trace) {
        reportDaemonLayers(before, after, rep);
        rep.set("loadgen.lag_p99_ms", quantile(session.lagMs, 0.99));
        if (!tracer.writeChromeTrace(traceOutputPath(opts)))
            rep.fail("could not write " + traceOutputPath(opts));
    }
    return rep;
}

} // namespace perfbench
