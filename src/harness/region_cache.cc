#include "harness/region_cache.hh"

#include "support/logging.hh"

namespace nachos {

RegionCache::Key
RegionCache::makeKey(const BenchmarkInfo &info, const RunRequest &request)
{
    Key key;
    key.info = &info;
    key.pathIndex = request.pathIndex;
    key.seed = request.seed;
    key.stage2 = request.pipeline.stage2;
    key.stage3 = request.pipeline.stage3;
    key.stage4 = request.pipeline.stage4;
    return key;
}

std::shared_ptr<const FrontEnd>
RegionCache::build(const BenchmarkInfo &info, const RunRequest &request,
                   StageTimes *times)
{
    StageTimes unused;
    return std::make_shared<const FrontEnd>(
        buildFrontEnd(info, request, times ? *times : unused));
}

std::shared_ptr<const FrontEnd>
RegionCache::acquire(const BenchmarkInfo &info, const RunRequest &request,
                     bool *hit, StageTimes *times)
{
    const Key key = makeKey(info, request);
    {
        // Literal runtime proof that the key ignores machine
        // overrides: stripping them must not change the key. If this
        // fires, someone leaked a simulation parameter into the
        // front-end key (see the Key doc in the header).
        RunRequest stripped = request;
        stripped.machine = MachineOverrides{};
        NACHOS_ASSERT(makeKey(info, stripped) == key,
                      "region cache key must be machine-independent");
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = lru_.begin(); it != lru_.end(); ++it) {
            if (it->key == key) {
                lru_.splice(lru_.begin(), lru_, it);
                ++hits_;
                if (hit)
                    *hit = true;
                return lru_.front().entry;
            }
        }
        ++misses_;
    }
    if (hit)
        *hit = false;

    std::shared_ptr<const FrontEnd> entry =
        build(info, request, times);
    if (capacity_ == 0)
        return entry;

    std::lock_guard<std::mutex> lock(mutex_);
    // A racing builder may have inserted the key meanwhile; keep the
    // resident entry so repeated acquires hand out one object.
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
        if (it->key == key) {
            lru_.splice(lru_.begin(), lru_, it);
            return lru_.front().entry;
        }
    }
    lru_.push_front(Node{key, entry});
    while (lru_.size() > capacity_) {
        lru_.pop_back();
        ++evictions_;
    }
    return entry;
}

RegionCache::Counters
RegionCache::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Counters c;
    c.hits = hits_;
    c.misses = misses_;
    c.evictions = evictions_;
    c.size = lru_.size();
    return c;
}

} // namespace nachos
