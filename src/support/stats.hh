/**
 * @file
 * Counters, latency histograms, and StatSet, a registry of named ones
 * for statistics whose names are open-ended: the daemon's `metrics`
 * counters and histograms, and the suite runner's stage timing. A
 * simulation's counters are fixed at compile time and live in the
 * counter table instead (support/sim_stats).
 */

#ifndef NACHOS_SUPPORT_STATS_HH
#define NACHOS_SUPPORT_STATS_HH

#include <cstdint>
#include <map>
#include <string>

namespace nachos {

class JsonValue;

/** A single scalar event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    uint64_t value() const { return value_; }

  private:
    uint64_t value_ = 0;
};

/**
 * Streaming latency distribution over fixed log2-scale buckets:
 * bucket b holds samples whose value has bit-width b (0, 1, 2-3, 4-7,
 * ... up to 2^63-). Constant memory, O(1) sampling, and percentile
 * reads that are exact to within one octave — plenty for the daemon's
 * p50/p95/p99 service-latency metrics, where the interesting signal
 * is orders of magnitude, not microseconds.
 */
class LatencyHistogram
{
  public:
    static constexpr size_t kBuckets = 65; ///< bit-widths 0..64

    void sample(uint64_t value, uint64_t weight = 1);

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    /** Smallest / largest sampled value (0 when empty). */
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return max_; }
    double mean() const;

    /**
     * Value at percentile p (0 < p <= 100): the upper bound of the
     * bucket holding the rank-ceil(p/100*count) sample, clamped to the
     * observed min/max. 0 when empty.
     */
    uint64_t percentile(double p) const;

    uint64_t p50() const { return percentile(50); }
    uint64_t p95() const { return percentile(95); }
    uint64_t p99() const { return percentile(99); }

    uint64_t bucket(size_t idx) const;

    /**
     * Fold another histogram's samples into this one (buckets add,
     * min/max widen).
     */
    void merge(const LatencyHistogram &other);

    void reset();

    /** {"count":..,"sum":..,"min":..,"max":..,"mean":..,
     *  "p50":..,"p95":..,"p99":..} */
    JsonValue jsonSnapshot() const;

  private:
    uint64_t buckets_[kBuckets] = {};
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = UINT64_MAX;
    uint64_t max_ = 0;
};

/**
 * A registry of named counters and latency histograms. Names are
 * hierarchical by convention ("l1.hits", "lsq.camSearches"). Lookup
 * creates the stat on first use so call sites stay terse.
 */
class StatSet
{
  public:
    /** Get (creating if needed) the counter with the given name. */
    Counter &counter(const std::string &name);

    /** Read a counter's value; zero if it was never touched. */
    uint64_t get(const std::string &name) const;

    /** Get (creating if needed) the histogram with the given name. */
    LatencyHistogram &histogram(const std::string &name);

    /**
     * Fold another set into this one: counters add, histograms merge,
     * names absent here are created.
     */
    void merge(const StatSet &other);

    /** Reset every counter and histogram to zero. */
    void resetAll();

    const std::map<std::string, LatencyHistogram> &histograms() const
    {
        return histograms_;
    }

    /**
     * JSON snapshot {"counters":{name:value,...},
     * "histograms":{name:{count,sum,min,max,mean,p50,p95,p99},...}},
     * both in name order — the payload of the daemon's `metrics`
     * response.
     */
    JsonValue jsonSnapshot() const;

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, LatencyHistogram> histograms_;
};

} // namespace nachos

#endif // NACHOS_SUPPORT_STATS_HH
