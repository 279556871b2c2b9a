/**
 * @file
 * Counters and latency histograms. A simulation's counters are the
 * rows of the counter table (support/sim_stats); the daemon's `metrics`
 * counters and histograms are the fields of DaemonMetrics
 * (service/daemon.hh). Both name every statistic at compile time.
 */

#ifndef NACHOS_SUPPORT_STATS_HH
#define NACHOS_SUPPORT_STATS_HH

#include <cstddef>
#include <cstdint>

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

} // namespace nachos

#endif // NACHOS_SUPPORT_STATS_HH
