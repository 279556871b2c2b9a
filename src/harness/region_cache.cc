#include "harness/region_cache.hh"

#include <algorithm>

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
                     bool *hit, StageTimes *times, bool retain)
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
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        for (auto it = lru_.begin(); it != lru_.end(); ++it) {
            if (it->key == key) {
                lru_.splice(lru_.begin(), lru_, it);
                if (retain)
                    this->retain(lru_.front());
                ++hits_;
                if (hit)
                    *hit = true;
                return lru_.front().entry;
            }
        }
        if (std::find(building_.begin(), building_.end(), key) ==
            building_.end())
            break;
        built_.wait(lock);
    }
    ++misses_;
    if (hit)
        *hit = false;
    if (capacity_ == 0) {
        lock.unlock();
        return build(info, request, times);
    }
    building_.push_back(key);
    lock.unlock();

    std::shared_ptr<const FrontEnd> entry;
    try {
        entry = build(info, request, times);
    } catch (...) {
        land(key, nullptr, retain);
        throw;
    }
    land(key, entry, retain);
    return entry;
}

void
RegionCache::land(const Key &key, std::shared_ptr<const FrontEnd> entry,
                  bool retain)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        building_.erase(
            std::find(building_.begin(), building_.end(), key));
        if (entry) {
            lru_.push_front(Node{key, std::move(entry)});
            if (retain)
                this->retain(lru_.front());
        }
        while (lru_.size() > capacity_) {
            // At most capacity_ / 2 entries are retained, so the list
            // holds an unretained one.
            const auto victim =
                std::find_if(lru_.rbegin(), lru_.rend(),
                             [](const Node &n) { return !n.retained; });
            lru_.erase(std::prev(victim.base()));
            ++evictions_;
        }
    }
    built_.notify_all();
    if (onBuilt_)
        onBuilt_();
}

void
RegionCache::retain(Node &node)
{
    if (node.retained)
        return;
    node.retained = true;
    ++retained_;
    // Past half the capacity, the least recently used mark goes.
    for (auto it = lru_.rbegin(); retained_ > capacity_ / 2; ++it) {
        if (it->retained) {
            it->retained = false;
            --retained_;
        }
    }
}

bool
RegionCache::building(const BenchmarkInfo &info,
                      const RunRequest &request) const
{
    const Key key = makeKey(info, request);
    std::lock_guard<std::mutex> lock(mutex_);
    return std::find(building_.begin(), building_.end(), key) !=
           building_.end();
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
