#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
secondsSince(Clock::time_point a)
{
    return secondsBetween(a, Clock::now());
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"throughput_per_s", "1/s"},
        {"latency_p50_ms", "ms"},
        {"latency_p99_ms", "ms"},
        {"peak_rss_mb", "MiB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"workloads.synth_ms", "ms"},
        {"analysis.pipeline_ms", "ms"},
        {"analysis.may_pairs", "count"},
        {"mde.insert_ms", "ms"},
        {"mde.order", "count"},
        {"mde.forward", "count"},
        {"mde.may", "count"},
        {"cgra.sim_lsq_ms", "ms"},
        {"cgra.sim_sw_ms", "ms"},
        {"cgra.sim_nachos_ms", "ms"},
        {"cgra.sim_calls", "count"},
        {"cgra.sim_us_per_call", "us"},
        {"cgra.events_dispatched", "count"},
        {"cgra.ns_per_event", "ns"},
        {"cgra.sim_cycles", "count"},
        {"cgra.host_ns_per_sim_cycle", "ns"},
        {"mem.l1_hits", "count"},
        {"mem.l1_misses", "count"},
        {"mem.llc_misses", "count"},
        {"lsq.bloom_probes", "count"},
        {"lsq.bloom_hit_ratio", "ratio"},
        {"lsq.cam_searches", "count"},
        {"nachos.may_checks", "count"},
        {"nachos.conflict_ratio", "ratio"},
        {"testing.case_us", "us"},
        {"testing.region_gen_us", "us"},
        {"testing.oracle_us", "us"},
        {"testing.check_us", "us"},
        {"harness.cache_hit_ratio", "ratio"},
        {"service.queue_wait_us_mean", "us"},
        {"service.frontend_us_mean", "us"},
        {"service.sim_us_mean", "us"},
        {"service.lanes_per_group", "lanes"},
        {"service.steals", "count"},
        {"loadgen.lag_p99_ms", "ms"},
        {"trace.overhead_ms", "ms"},
        {"trace.layer_share", "ratio"},
    };
    return specs;
}

void
Report::set(const std::string &name, double value)
{
    metrics[name] = value;
}

void
Report::fail(const std::string &what)
{
    correct = false;
    ++failed;
    if (notes.size() < 64)
        notes.push_back("FAIL " + what);
}

static std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printReport(const Options &opts, const Report &report)
{
    std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
                opts.workload.c_str(), opts.seed, opts.seconds,
                opts.trace ? 1 : 0);
    for (const std::string &note : report.notes)
        std::printf("  %s\n", note.c_str());
    std::printf("  sim_digest %016" PRIx64 "\n", report.simDigest);
    const double errorRatio =
        report.attempted ? double(report.failed) / double(report.attempted)
                         : 1.0;
    std::printf("  error_ratio %s (%" PRIu64 " failed of %" PRIu64
                " attempted)\n",
                number(errorRatio).c_str(), report.failed,
                report.attempted);

    const std::vector<MetricSpec> &specs =
        opts.trace ? perLayerMetrics() : endToEndMetrics();
    std::string absent;
    std::string json = "{\"correct\": ";
    json += report.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < specs.size(); ++i) {
        const std::string name = specs[i].name;
        double value = 0;
        if (auto it = report.metrics.find(name); it != report.metrics.end())
            value = it->second;
        else
            absent += " " + name;
        json += (i ? ", \"" : "\"") + name + "\": {\"value\": " +
                number(value) + ", \"unit\": \"" + specs[i].unit + "\"}";
    }
    json += "}}";
    if (!absent.empty())
        std::printf("  not exercised by this workload (reported as 0):%s\n",
                    absent.c_str());
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * double(samples.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (samples[hi] - samples[lo]) * (pos - double(lo));
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void
reportTrials(const std::vector<Trial> &trials, const char *workUnit,
             Report &rep)
{
    double bestRate = 0;
    double bestP50 = 0;
    double bestP99 = 0;
    for (size_t i = 0; i < trials.size(); ++i) {
        const Trial &t = trials[i];
        const double rate = t.seconds > 0 ? t.work / t.seconds : 0;
        const double p50 = quantile(t.latencyMs, 0.50);
        const double p99 = quantile(t.latencyMs, 0.99);
        char note[200];
        std::snprintf(note, sizeof(note),
                      "trial %zu: %.3f %s/s, latency p50 %.4f ms p99 %.4f ms "
                      "(%zu samples)",
                      i, rate, workUnit, p50, p99, t.latencyMs.size());
        rep.notes.push_back(note);
        bestRate = std::max(bestRate, rate);
        bestP50 = i == 0 ? p50 : std::min(bestP50, p50);
        bestP99 = i == 0 ? p99 : std::min(bestP99, p99);
    }
    rep.set("throughput_per_s", bestRate);
    rep.set("latency_p50_ms", bestP50);
    rep.set("latency_p99_ms", bestP99);
}

std::vector<double>
fastestRuns(const std::vector<Trial> &trials)
{
    std::vector<double> fastest = trials.front().latencyMs;
    for (const Trial &t : trials)
        for (size_t i = 0; i < fastest.size(); ++i)
            fastest[i] = std::min(fastest[i], t.latencyMs[i]);
    return fastest;
}

void
reportFastestRuns(const std::vector<Trial> &trials, const char *workUnit,
                  Report &rep)
{
    const std::vector<double> fastest = fastestRuns(trials);
    std::vector<double> trialSeconds;
    for (const Trial &t : trials)
        trialSeconds.push_back(t.seconds);
    double totalMs = 0;
    for (double ms : fastest)
        totalMs += ms;
    char note[200];
    std::snprintf(note, sizeof(note),
                  "%zu trials of %zu %s: median trial %.6f s, fastest "
                  "runs sum to %.6f s",
                  trials.size(), fastest.size(), workUnit,
                  median(trialSeconds), totalMs / 1e3);
    rep.notes.push_back(note);
    rep.set("throughput_per_s", 1e3 * double(fastest.size()) / totalMs);
    rep.set("latency_p50_ms", quantile(fastest, 0.50));
    rep.set("latency_p99_ms", quantile(fastest, 0.99));
}

void
Digest::add(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    add(std::bit_cast<uint64_t>(v));
}

void
Digest::add(std::string_view s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 0x100000001b3ULL;
    }
    add(uint64_t{s.size()});
}

void
Digest::add(const nachos::SimResult &r)
{
    add(r.cycles);
    add(r.maxMlp);
    add(r.loadValueDigest);
    add(r.energy.total());
    for (const auto &[name, value] : r.stats.dump()) {
        add(name);
        add(value);
    }
}

void
LayerCounts::addFrontEnd(const nachos::AliasAnalysisResult &analysis,
                         const nachos::MdeSet &mdes)
{
    mayPairs += analysis.final().all.may;
    const nachos::MdeCounts c = mdes.counts();
    mdeOrder += c.order;
    mdeForward += c.forward;
    mdeMay += c.may;
}

void
LayerCounts::addSim(const nachos::SimResult &r)
{
    ++simCalls;
    events += r.planEventsDispatched;
    simCycles += r.cycles;
    l1Hits += r.stats.get("l1.hits");
    l1Misses += r.stats.get("l1.misses");
    llcMisses += r.stats.get("llc.misses");
    bloomProbes += r.stats.get("lsq.bloomProbes");
    bloomHits += r.stats.get("lsq.bloomHits");
    camSearches += r.stats.get("lsq.camLoads") + r.stats.get("lsq.camStores");
    mayChecks += r.stats.get("mde.mayChecks");
    mayConflicts += r.stats.get("nachos.checksConflict");
}

static double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

void
LayerCounts::report(Report &rep) const
{
    rep.set("analysis.may_pairs", double(mayPairs));
    rep.set("mde.order", double(mdeOrder));
    rep.set("mde.forward", double(mdeForward));
    rep.set("mde.may", double(mdeMay));
    rep.set("cgra.sim_calls", double(simCalls));
    rep.set("cgra.events_dispatched", double(events));
    rep.set("cgra.sim_cycles", double(simCycles));
    rep.set("mem.l1_hits", double(l1Hits));
    rep.set("mem.l1_misses", double(l1Misses));
    rep.set("mem.llc_misses", double(llcMisses));
    rep.set("lsq.bloom_probes", double(bloomProbes));
    rep.set("lsq.bloom_hit_ratio", ratio(double(bloomHits), double(bloomProbes)));
    rep.set("lsq.cam_searches", double(camSearches));
    rep.set("nachos.may_checks", double(mayChecks));
    rep.set("nachos.conflict_ratio",
            ratio(double(mayConflicts), double(mayChecks)));
}

void
reportLayerTimes(const Tracer &tracer, double ops, const LayerCounts &counts,
                 uint64_t countReps, Report &rep)
{
    const std::map<std::string, double> self = tracer.selfMicros();
    auto us = [&self](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    const double perOpMs = ops > 0 ? 1e-3 / ops : 0;
    rep.set("workloads.synth_ms", us("workloads.synth") * perOpMs);
    rep.set("analysis.pipeline_ms", us("analysis.pipeline") * perOpMs);
    rep.set("mde.insert_ms", us("mde.insert") * perOpMs);
    rep.set("cgra.sim_lsq_ms", us("cgra.sim_lsq") * perOpMs);
    rep.set("cgra.sim_sw_ms", us("cgra.sim_sw") * perOpMs);
    rep.set("cgra.sim_nachos_ms", us("cgra.sim_nachos") * perOpMs);
    rep.set("testing.region_gen_us", ratio(us("testing.region_gen"), ops));
    rep.set("testing.oracle_us", ratio(us("testing.oracle"), ops));
    rep.set("testing.check_us", ratio(us("testing.check"), ops));

    const double simUs =
        us("cgra.sim_lsq") + us("cgra.sim_sw") + us("cgra.sim_nachos");
    const double reps = double(countReps);
    rep.set("cgra.sim_us_per_call", ratio(simUs, double(counts.simCalls) * reps));
    rep.set("cgra.ns_per_event",
            ratio(simUs * 1e3, double(counts.events) * reps));
    rep.set("cgra.host_ns_per_sim_cycle",
            ratio(simUs * 1e3, double(counts.simCycles) * reps));
}

std::string
traceOutputPath(const Options &opts)
{
    return ".bench_run/trace-" + opts.workload + "-seed" +
           std::to_string(opts.seed) + ".json";
}

} // namespace perfbench
