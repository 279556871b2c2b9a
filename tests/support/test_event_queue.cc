/**
 * @file
 * CalendarQueue ordering contract: drainWave() returns the earliest
 * pending cycle's events ordered by the queue's `Before`, whatever
 * order they were scheduled in; events scheduled for the current cycle
 * while a wave is being processed form the next wave. The property
 * test replays random schedules (including schedules issued from
 * within handlers, for the current cycle and far beyond the ring
 * window) against a reference model ordered by (cycle, Before).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/alloc_hook.hh"
#include "support/event_queue.hh"
#include "support/random.hh"

namespace nachos {
namespace {

struct Ev
{
    uint32_t tag = 0;
};

struct TagBefore
{
    bool
    operator()(const Ev &a, const Ev &b) const
    {
        return a.tag < b.tag;
    }
};

using Queue = CalendarQueue<Ev, TagBefore, 64>;
using Trace = std::vector<std::pair<uint64_t, uint32_t>>;

/** Drain the queue wave by wave into (cycle, tag) pairs. */
Trace
drain(Queue &q)
{
    Trace out;
    std::vector<Ev> wave;
    while (!q.empty()) {
        wave.clear();
        const uint64_t cycle = q.drainWave(wave);
        for (const Ev &ev : wave)
            out.push_back({cycle, ev.tag});
    }
    return out;
}

std::vector<uint32_t>
tagsOf(const std::vector<Ev> &wave)
{
    std::vector<uint32_t> tags;
    for (const Ev &ev : wave)
        tags.push_back(ev.tag);
    return tags;
}

TEST(CalendarQueue, SameCycleEventsDrainInCanonicalOrder)
{
    Queue q;
    // A scrambled permutation of 0..99 (37 is coprime to 100).
    for (uint32_t i = 0; i < 100; ++i)
        q.schedule(7, {(i * 37) % 100});
    const Trace out = drain(q);
    ASSERT_EQ(out.size(), 100u);
    for (uint32_t i = 0; i < 100; ++i) {
        EXPECT_EQ(out[i].first, 7u);
        EXPECT_EQ(out[i].second, i);
    }
}

TEST(CalendarQueue, CyclesPopInOrderAcrossRingAndOverflow)
{
    Queue q;
    // Far beyond the 64-cycle ring, interleaved with near events.
    q.schedule(1000, {0});
    q.schedule(3, {3});
    q.schedule(500, {2});
    q.schedule(3, {1});
    q.schedule(65, {4}); // outside the initial window
    const Trace want = {{3, 1}, {3, 3}, {65, 4}, {500, 2}, {1000, 0}};
    EXPECT_EQ(drain(q), want);
}

TEST(CalendarQueue, HandlerMaySchedForCurrentCycle)
{
    // Events a handler schedules *for the current cycle* run in this
    // cycle, as a later wave — even when they order before events of
    // the wave being processed.
    Queue q;
    q.schedule(5, {4});
    q.schedule(5, {1});
    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 5u);
    EXPECT_EQ(tagsOf(wave), (std::vector<uint32_t>{1, 4}));

    q.schedule(5, {3}); // from "inside" the handlers of wave {1, 4}
    q.schedule(5, {0});
    wave.clear();
    EXPECT_EQ(q.drainWave(wave), 5u);
    EXPECT_EQ(tagsOf(wave), (std::vector<uint32_t>{0, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, ClockNeverRunsBackwards)
{
    Queue q;
    q.schedule(10, {0});
    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 10u);
    EXPECT_EQ(q.now(), 10u);
    // Scheduling at now() is allowed; the past would assert.
    q.schedule(10, {1});
    EXPECT_EQ(q.drainWave(wave), 10u);
}

TEST(CalendarQueue, ReschedulingKeepsWindowInvariantAfterLongJump)
{
    Queue q;
    q.schedule(0, {0});
    q.schedule(100000, {1}); // deep overflow
    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 0u);
    EXPECT_EQ(q.drainWave(wave), 100000u);
    EXPECT_EQ(wave.back().tag, 1u);
    // After the jump the ring must accept nearby cycles again.
    q.schedule(100001, {2});
    q.schedule(100063, {3});
    EXPECT_EQ(q.drainWave(wave), 100001u);
    EXPECT_EQ(q.drainWave(wave), 100063u);
    EXPECT_TRUE(q.empty());
}

/**
 * Reference model: the pending set as a flat list. A wave is every
 * pending event at the minimum cycle, sorted by tag; handlers add to
 * the set after the wave leaves it, so same-cycle follow-ups form the
 * next wave.
 */
TEST(CalendarQueue, PropertyMatchesPriorityQueueContract)
{
    Rng rng(12345);
    for (int round = 0; round < 50; ++round) {
        Queue q;
        std::vector<std::pair<uint64_t, uint32_t>> pending;
        Trace want;
        Trace got;
        const auto schedule = [&](uint64_t cycle) {
            // Random tags, duplicates included: order must come from
            // the tag, never from the scheduling sequence.
            const uint32_t tag = static_cast<uint32_t>(rng.below(64));
            q.schedule(cycle, {tag});
            pending.push_back({cycle, tag});
        };

        // Initial burst.
        for (int i = 0; i < 40; ++i)
            schedule(rng.below(300));

        std::vector<Ev> wave;
        size_t scheduled = 40;
        while (!q.empty()) {
            // Model wave: the minimum cycle's events, tag-ordered.
            const uint64_t first =
                std::min_element(pending.begin(), pending.end())->first;
            std::vector<std::pair<uint64_t, uint32_t>> modelWave;
            std::erase_if(pending, [&](const auto &p) {
                if (p.first != first)
                    return false;
                modelWave.push_back(p);
                return true;
            });
            std::sort(modelWave.begin(), modelWave.end());
            want.insert(want.end(), modelWave.begin(), modelWave.end());

            wave.clear();
            const uint64_t cycle = q.drainWave(wave);
            for (const Ev &ev : wave) {
                got.push_back({cycle, ev.tag});
                // Handlers occasionally schedule follow-ups: same
                // cycle, near future, or deep into overflow territory.
                if (rng.below(100) < 30 && scheduled < 2000) {
                    const uint64_t delta =
                        rng.below(100) < 20 ? 0 : 1 + rng.below(400);
                    schedule(cycle + delta);
                    ++scheduled;
                }
            }
        }
        EXPECT_TRUE(pending.empty()) << "round " << round;
        ASSERT_EQ(got, want) << "round " << round;
    }
}

TEST(CalendarQueue, InsertPathsTailHeadAndMidList)
{
    Queue q;
    q.schedule(2, {10}); // empty slot
    q.schedule(2, {20}); // tail append
    q.schedule(2, {20}); // tail append of an equal event
    q.schedule(2, {5});  // head insert
    q.schedule(2, {15}); // mid-list: between 10 and 20
    q.schedule(2, {7});  // mid-list: right after the head
    q.schedule(2, {19}); // mid-list: right before the tail run
    q.schedule(2, {30}); // tail append after mid inserts
    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 2u);
    EXPECT_EQ(tagsOf(wave),
              (std::vector<uint32_t>{5, 7, 10, 15, 19, 20, 20, 30}));
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, DrainWaveReturnsOneCycleInCanonicalOrder)
{
    Queue q;
    q.schedule(9, {0});
    q.schedule(5, {2});
    q.schedule(5, {1});
    q.schedule(500, {3}); // overflow, beyond the 64-cycle ring

    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 5u);
    EXPECT_EQ(tagsOf(wave), (std::vector<uint32_t>{1, 2}));
    EXPECT_EQ(q.size(), 2u); // cycle 9 stays queued

    wave.clear();
    EXPECT_EQ(q.drainWave(wave), 9u);
    EXPECT_EQ(tagsOf(wave), (std::vector<uint32_t>{0}));

    // The overflow event migrates into the ring as the clock advances.
    wave.clear();
    EXPECT_EQ(q.drainWave(wave), 500u);
    EXPECT_EQ(tagsOf(wave), (std::vector<uint32_t>{3}));
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, OverflowMigratesIntoAnOccupiedSlotInOrder)
{
    // Five events for cycle 200 wait in the overflow heap (beyond the
    // ring at now = 0). The clock stop at 140 brings 200 into the
    // window: the first migrant takes the empty ring slot and the rest
    // migrate into the occupied slot, in heap order, through the same
    // ordered insert. Direct schedules then join the slot.
    Queue q;
    for (const uint32_t tag : {50u, 10u, 30u, 40u, 20u})
        q.schedule(200, {tag});
    q.schedule(140, {99});
    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 140u);
    q.schedule(200, {60}); // tail
    q.schedule(200, {5});  // head
    q.schedule(200, {25}); // mid-list
    wave.clear();
    EXPECT_EQ(q.drainWave(wave), 200u);
    EXPECT_EQ(tagsOf(wave),
              (std::vector<uint32_t>{5, 10, 20, 25, 30, 40, 50, 60}));
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, DrainWaveSameCycleReschedulesFormTheNextWave)
{
    // Handlers processing a wave may schedule follow-ups for the SAME
    // cycle; the drain leaves the slot empty, so those form a second
    // wave at the same now() instead of mixing into the first.
    Queue q;
    q.schedule(5, {0});
    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 5u);
    ASSERT_EQ(wave.size(), 1u);

    q.schedule(5, {2});
    q.schedule(5, {1});
    wave.clear();
    EXPECT_EQ(q.drainWave(wave), 5u);
    EXPECT_EQ(tagsOf(wave), (std::vector<uint32_t>{1, 2}));
}

TEST(CalendarQueue, WarmDrainWaveReplayAllocatesNothing)
{
    // Storage is one node slab with a free list, bounded by the peak
    // number of pending events: once a fixed schedule/drainWave
    // pattern has run, replaying it allocates nothing — same-cycle
    // fan-in, in-wave reschedules and overflow migration included.
    Queue q;
    std::vector<Ev> wave;
    const auto pass = [&] {
        const uint64_t base = q.now();
        for (uint32_t i = 0; i < 48; ++i)
            q.schedule(base + 1 + i % 5, {i});
        q.schedule(base + 300, {100}); // overflow, beyond the ring
        while (!q.empty()) {
            wave.clear();
            const uint64_t cycle = q.drainWave(wave);
            for (const Ev &ev : wave) {
                if (ev.tag < 16)
                    q.schedule(cycle, {ev.tag + 16}); // same cycle
                else if (ev.tag < 48 && ev.tag % 4 == 0)
                    q.schedule(cycle + 7, {200});
            }
        }
    };
    pass();
    const uint64_t before = threadAllocCount();
    pass();
    pass();
    EXPECT_EQ(threadAllocCount() - before, 0u);
}

// reset() rewinds an empty queue's clock for a new simulation and
// keeps its node slab: the replay after it allocates nothing.
TEST(CalendarQueue, ResetRewindsTheClockAndKeepsTheSlab)
{
    Queue q;
    std::vector<Ev> wave;
    const auto replay = [&] {
        for (uint32_t i = 0; i < 32; ++i)
            q.schedule(i % 4, Ev{i});
        q.schedule(500, Ev{99}); // through the overflow heap
        uint64_t last = 0;
        while (!q.empty()) {
            wave.clear();
            last = q.drainWave(wave);
        }
        return last;
    };
    EXPECT_EQ(replay(), 500u);
    EXPECT_EQ(q.now(), 500u);
    q.reset();
    EXPECT_EQ(q.now(), 0u);
    const uint64_t before = threadAllocCount();
    EXPECT_EQ(replay(), 500u);
    EXPECT_EQ(threadAllocCount() - before, 0u);
}

TEST(CalendarQueueDeathTest, ResetOfANonEmptyQueuePanics)
{
    Queue q;
    q.schedule(3, Ev{1});
    EXPECT_DEATH(q.reset(), "reset of a queue holding 1 events");
}

} // namespace
} // namespace nachos
