#include "support/stats.hh"

#include <bit>

#include "support/json.hh"
#include "support/logging.hh"

namespace nachos {

void
LatencyHistogram::sample(uint64_t value, uint64_t weight)
{
    buckets_[std::bit_width(value)] += weight;
    count_ += weight;
    sum_ += value * weight;
    if (value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
}

double
LatencyHistogram::mean() const
{
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
}

uint64_t
LatencyHistogram::percentile(double p) const
{
    NACHOS_ASSERT(p > 0 && p <= 100, "percentile out of range");
    if (count_ == 0)
        return 0;
    // Rank of the requested sample, 1-based.
    uint64_t rank = static_cast<uint64_t>(p / 100.0 *
                                          static_cast<double>(count_));
    if (static_cast<double>(rank) * 100.0 <
        p * static_cast<double>(count_))
        ++rank; // ceil
    if (rank < 1)
        rank = 1;
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
        seen += buckets_[b];
        if (seen >= rank) {
            // Upper bound of bucket b (bit-width b), clamped to what
            // was actually observed.
            const uint64_t hi =
                b == 0 ? 0 : (b >= 64 ? UINT64_MAX : (1ull << b) - 1);
            return std::min(std::max(hi, min()), max_);
        }
    }
    return max_;
}

uint64_t
LatencyHistogram::bucket(size_t idx) const
{
    NACHOS_ASSERT(idx < kBuckets, "histogram bucket out of range");
    return buckets_[idx];
}

void
LatencyHistogram::reset()
{
    *this = LatencyHistogram();
}

JsonValue
LatencyHistogram::jsonSnapshot() const
{
    JsonValue v = JsonValue::makeObject();
    v.set("count", count_);
    v.set("sum", sum_);
    v.set("min", min());
    v.set("max", max_);
    v.set("mean", mean());
    v.set("p50", p50());
    v.set("p95", p95());
    v.set("p99", p99());
    return v;
}

} // namespace nachos
