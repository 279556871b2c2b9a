/**
 * @file
 * Calendar queue for discrete-event simulation: a ring of per-cycle
 * lists threaded through one node slab (with a free list of node
 * indices) plus an overflow min-heap for events beyond the ring
 * window.
 *
 * Ordering contract: drainWave() hands back every event pending for
 * the earliest cycle, ordered by `Before` — the order is a pure
 * function of event contents, whatever order they were scheduled in.
 * Events a handler schedules for the current cycle while a wave is
 * being processed form the next wave at the same cycle.
 *
 * Why it is fast: each ring slot's list is kept in `Before` order as
 * events arrive. schedule() checks the list tail first, so an
 * in-order schedule is an O(1) append; otherwise the node goes to the
 * head or walks to its place (waves are short). Nodes come from the
 * free list, so storage is bounded by the peak number of pending
 * events and a warm queue allocates nothing. The heap is touched only
 * by far-future events (DRAM-miss completions when BucketCount is
 * small); they migrate into the ring through the same ordered insert.
 */

#ifndef NACHOS_SUPPORT_EVENT_QUEUE_HH
#define NACHOS_SUPPORT_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/logging.hh"

namespace nachos {

/**
 * @tparam Event   small trivially-copyable record stored by value
 * @tparam Before  stateless strict weak order on events: the
 *         within-cycle order drainWave() returns (equivalent events
 *         keep their scheduling order)
 * @tparam BucketCount ring size in cycles; must be a power of two and
 *         a multiple of 64. Events scheduled further ahead than this
 *         overflow into a heap and migrate back as the clock advances.
 */
template <typename Event, typename Before, size_t BucketCount = 1024>
class CalendarQueue
{
    static_assert((BucketCount & (BucketCount - 1)) == 0,
                  "BucketCount must be a power of two");
    static_assert(BucketCount >= 64 && BucketCount % 64 == 0,
                  "BucketCount must be a multiple of 64");

  public:
    /** Current simulation cycle (the cycle of the last drained wave). */
    uint64_t now() const { return now_; }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /**
     * Rewind the clock to cycle 0 for a new simulation. The queue must
     * be empty; the node slab and free list are kept, so a reused
     * queue allocates nothing until it holds more events than it ever
     * has.
     */
    void
    reset()
    {
        NACHOS_ASSERT(size_ == 0, "reset of a queue holding ", size_,
                      " events");
        now_ = 0;
    }

    /** Enqueue `ev` for `cycle`. The clock never runs backwards. */
    void
    schedule(uint64_t cycle, const Event &ev)
    {
        NACHOS_ASSERT(cycle >= now_, "scheduled into the past: cycle ",
                      cycle, " now ", now_);
        ++size_;
        if (cycle - now_ < BucketCount) {
            insert(cycle & (BucketCount - 1), ev);
        } else {
            overflow_.push_back(OverflowEntry{cycle, ev});
            std::push_heap(overflow_.begin(), overflow_.end(),
                           OverflowLater{});
        }
    }

    /**
     * Append every event currently enqueued for the earliest pending
     * cycle to `out` in `Before` order, and advance now() to that
     * cycle. The cycle's nodes return to the free list, so events the
     * caller schedules for that same cycle while processing the wave
     * start a fresh list and the next drainWave at the same now()
     * returns exactly the new batch. Must not be called on an empty
     * queue.
     */
    uint64_t
    drainWave(std::vector<Event> &out)
    {
        NACHOS_ASSERT(size_ > 0, "drainWave from empty event queue");
        const size_t slot = frontSlot();
        const uint32_t last = tail_[slot];
        for (uint32_t n = head_[slot];; n = nodes_[n].next) {
            out.push_back(nodes_[n].ev);
            free_.push_back(n);
            --size_;
            if (n == last)
                break;
        }
        clearOccupied(slot);
        return now_;
    }

  private:
    struct OverflowEntry
    {
        uint64_t cycle;
        Event ev;
    };

    /** Min-heap comparator on cycle; migration restores `Before`. */
    struct OverflowLater
    {
        bool
        operator()(const OverflowEntry &a, const OverflowEntry &b) const
        {
            return a.cycle > b.cycle;
        }
    };

    /** List terminator for Node::next. */
    static constexpr uint32_t kNil = ~uint32_t{0};

    /** One pending ring event: a slab node linked into its cycle's
     * ordered list. */
    struct Node
    {
        Event ev;
        uint32_t next;
    };

    /** Link `ev` into ring slot `slot`'s list at its `Before` place,
     * after any equivalent events already there. */
    void
    insert(size_t slot, const Event &ev)
    {
        uint32_t node;
        if (!free_.empty()) {
            node = free_.back();
            free_.pop_back();
            nodes_[node] = Node{ev, kNil};
        } else {
            node = static_cast<uint32_t>(nodes_.size());
            nodes_.push_back(Node{ev, kNil});
        }
        if (!isOccupied(slot)) {
            markOccupied(slot);
            head_[slot] = node;
            tail_[slot] = node;
            return;
        }
        const Before before;
        if (!before(ev, nodes_[tail_[slot]].ev)) {
            nodes_[tail_[slot]].next = node;
            tail_[slot] = node;
            return;
        }
        uint32_t prev = head_[slot];
        if (before(ev, nodes_[prev].ev)) {
            nodes_[node].next = prev;
            head_[slot] = node;
            return;
        }
        // ev sorts before the tail, so the walk stops before it.
        while (!before(ev, nodes_[nodes_[prev].next].ev))
            prev = nodes_[prev].next;
        nodes_[node].next = nodes_[prev].next;
        nodes_[prev].next = node;
    }

    bool
    isOccupied(size_t slot) const
    {
        return (occupied_[slot / 64] >> (slot % 64)) & 1;
    }

    void
    markOccupied(size_t slot)
    {
        occupied_[slot / 64] |= uint64_t{1} << (slot % 64);
    }

    void
    clearOccupied(size_t slot)
    {
        occupied_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
    }

    /**
     * Cyclic distance from `from` to the next occupied ring slot
     * (searching slots from+1, from+2, ...), or 0 if the ring holds no
     * events. `from`'s own list is empty when this is called.
     */
    size_t
    nextOccupiedDistance(size_t from) const
    {
        constexpr size_t kWords = BucketCount / 64;
        const size_t start = (from + 1) & (BucketCount - 1);
        for (size_t w = 0; w <= kWords; ++w) {
            const size_t wordIdx = (start / 64 + w) % kWords;
            uint64_t word = occupied_[wordIdx];
            if (w == 0)
                word &= ~uint64_t{0} << (start % 64);
            else if (w == kWords)
                word &= (uint64_t{1} << (start % 64)) - 1;
            if (word != 0) {
                const size_t slot =
                    wordIdx * 64 +
                    static_cast<size_t>(__builtin_ctzll(word));
                return (slot - from) & (BucketCount - 1);
            }
        }
        return 0;
    }

    /**
     * Ring slot of the earliest pending cycle, advancing now() to it.
     * The queue must not be empty.
     */
    size_t
    frontSlot()
    {
        while (!isOccupied(now_ & (BucketCount - 1)))
            advance();
        return now_ & (BucketCount - 1);
    }

    /** Move the clock to the next cycle holding an event. */
    void
    advance()
    {
        const size_t slot = now_ & (BucketCount - 1);
        const size_t dist = nextOccupiedDistance(slot);
        uint64_t next;
        if (dist != 0) {
            next = now_ + dist;
            if (!overflow_.empty() && overflow_.front().cycle < next)
                next = overflow_.front().cycle;
        } else {
            NACHOS_ASSERT(!overflow_.empty(),
                          "event queue lost track of ", size_,
                          " events");
            next = overflow_.front().cycle;
        }
        now_ = next;
        // Far-future events whose cycle just entered the ring window
        // migrate now, before any direct schedule for those cycles, so
        // a cycle's events never split between the ring and the heap.
        while (!overflow_.empty() &&
               overflow_.front().cycle - now_ < BucketCount) {
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          OverflowLater{});
            const OverflowEntry &e = overflow_.back();
            insert(e.cycle & (BucketCount - 1), e.ev);
            overflow_.pop_back();
        }
    }

    /** Node slab: the ring lists thread through it. */
    std::vector<Node> nodes_;
    /**
     * Free node indices, used as a stack. A stack rather than a list
     * threaded through Node::next: taking a node then needs no load
     * from the node itself, which keeps back-to-back schedule() calls
     * from serializing on each other (BM_EventQueuePushPop).
     */
    std::vector<uint32_t> free_;
    /** Per-slot list ends; meaningful only while the slot's occupancy
     * bit is set. */
    std::array<uint32_t, BucketCount> head_{};
    std::array<uint32_t, BucketCount> tail_{};
    std::array<uint64_t, BucketCount / 64> occupied_{};
    std::vector<OverflowEntry> overflow_;
    uint64_t now_ = 0;
    size_t size_ = 0;
};

} // namespace nachos

#endif // NACHOS_SUPPORT_EVENT_QUEUE_HH
