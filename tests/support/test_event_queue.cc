/**
 * @file
 * CalendarQueue ordering contract: pops come in non-decreasing cycle
 * order with FIFO ordering among same-cycle events — bit-identical to
 * the (cycle, seq) priority queue the simulator used previously. The
 * property test replays random schedules (including schedules issued
 * from within handlers, for the current cycle and far beyond the ring
 * window) against a reference model of the old contract.
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

using Queue = CalendarQueue<Ev, 64>;

std::vector<std::pair<uint64_t, uint32_t>>
drain(Queue &q)
{
    std::vector<std::pair<uint64_t, uint32_t>> out;
    Ev ev;
    while (!q.empty()) {
        const uint64_t cycle = q.pop(ev);
        out.push_back({cycle, ev.tag});
    }
    return out;
}

TEST(CalendarQueue, SameCycleEventsPopFifo)
{
    Queue q;
    for (uint32_t i = 0; i < 100; ++i)
        q.schedule(7, {i});
    const auto out = drain(q);
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
    q.schedule(3, {1});
    q.schedule(500, {2});
    q.schedule(3, {3});
    q.schedule(65, {4}); // outside the initial window
    const auto out = drain(q);
    const std::vector<std::pair<uint64_t, uint32_t>> want = {
        {3, 1}, {3, 3}, {65, 4}, {500, 2}, {1000, 0}};
    EXPECT_EQ(out, want);
}

TEST(CalendarQueue, HandlerMaySchedForCurrentCycle)
{
    // Events scheduled *for the current cycle* from within a handler
    // must run in this cycle, after everything already queued for it —
    // exactly what the old seq tiebreaker guaranteed.
    Queue q;
    q.schedule(5, {0});
    q.schedule(5, {1});
    std::vector<uint32_t> order;
    Ev ev;
    while (!q.empty()) {
        const uint64_t cycle = q.pop(ev);
        EXPECT_EQ(cycle, 5u);
        order.push_back(ev.tag);
        if (ev.tag == 0)
            q.schedule(5, {2}); // from "inside" handler 0
        if (ev.tag == 2)
            q.schedule(5, {3});
    }
    const std::vector<uint32_t> want = {0, 1, 2, 3};
    EXPECT_EQ(order, want);
}

TEST(CalendarQueue, ClockNeverRunsBackwards)
{
    Queue q;
    q.schedule(10, {0});
    Ev ev;
    EXPECT_EQ(q.pop(ev), 10u);
    EXPECT_EQ(q.now(), 10u);
    // Scheduling at now() is allowed; the past would assert.
    q.schedule(10, {1});
    EXPECT_EQ(q.pop(ev), 10u);
}

TEST(CalendarQueue, ReschedulingKeepsWindowInvariantAfterLongJump)
{
    Queue q;
    q.schedule(0, {0});
    q.schedule(100000, {1}); // deep overflow
    Ev ev;
    EXPECT_EQ(q.pop(ev), 0u);
    EXPECT_EQ(q.pop(ev), 100000u);
    EXPECT_EQ(ev.tag, 1u);
    // After the jump the ring must accept nearby cycles again.
    q.schedule(100001, {2});
    q.schedule(100063, {3});
    EXPECT_EQ(q.pop(ev), 100001u);
    EXPECT_EQ(q.pop(ev), 100063u);
    EXPECT_TRUE(q.empty());
}

/**
 * Reference model of the previous engine's contract: a list stably
 * sorted by cycle (stable sort preserves insertion order, i.e. the
 * old seq tiebreaker).
 */
TEST(CalendarQueue, PropertyMatchesPriorityQueueContract)
{
    Rng rng(12345);
    for (int round = 0; round < 50; ++round) {
        Queue q;
        std::vector<std::pair<uint64_t, uint32_t>> model;
        uint32_t tag = 0;

        // Initial burst.
        for (int i = 0; i < 40; ++i) {
            const uint64_t cycle = rng.below(300);
            q.schedule(cycle, {tag});
            model.push_back({cycle, tag});
            ++tag;
        }

        std::vector<std::pair<uint64_t, uint32_t>> got;
        Ev ev;
        while (!q.empty()) {
            const uint64_t cycle = q.pop(ev);
            got.push_back({cycle, ev.tag});
            // Handlers occasionally schedule follow-ups: same cycle,
            // near future, or deep into overflow territory.
            if (rng.below(100) < 30 && tag < 2000) {
                const uint64_t delta =
                    rng.below(100) < 20 ? 0 : 1 + rng.below(400);
                q.schedule(cycle + delta, {tag});
                model.push_back({cycle + delta, tag});
                ++tag;
            }
        }

        std::stable_sort(model.begin(), model.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        ASSERT_EQ(got, model) << "round " << round;
    }
}

TEST(CalendarQueue, RewindRestartsBelowTheClock)
{
    Queue q;
    q.schedule(100, {0});
    const auto first = drain(q);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(q.now(), 100u);

    // An empty queue may rewind; scheduling below the old clock and
    // draining again behaves exactly like a fresh queue.
    q.rewind(5);
    EXPECT_EQ(q.now(), 5u);
    q.schedule(5, {1});
    q.schedule(7, {2});
    q.schedule(5, {3});
    const auto out = drain(q);
    const std::vector<std::pair<uint64_t, uint32_t>> want{
        {5, 1}, {5, 3}, {7, 2}};
    EXPECT_EQ(out, want);
}

TEST(CalendarQueue, RewindClearsTheFinalRingBucket)
{
    // A rewind that lands a multiple of BucketCount below now() maps
    // to the SAME ring slot as the last drained cycle and must not
    // resurrect stale entries.
    Queue q;
    q.schedule(64, {0});
    q.schedule(64, {1});
    Ev ev;
    (void)q.pop(ev);
    (void)q.pop(ev);
    ASSERT_TRUE(q.empty());

    q.rewind(0); // slot 64 % 64 == slot 0
    q.schedule(0, {2});
    const auto out = drain(q);
    const std::vector<std::pair<uint64_t, uint32_t>> want{{0, 2}};
    EXPECT_EQ(out, want);
}

TEST(CalendarQueue, DrainWaveReturnsOneCycleInFifoOrder)
{
    Queue q;
    q.schedule(9, {0});
    q.schedule(5, {1});
    q.schedule(5, {2});
    q.schedule(500, {3}); // overflow, beyond the 64-cycle ring

    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 5u);
    ASSERT_EQ(wave.size(), 2u); // cycle 9 stays queued
    EXPECT_EQ(wave[0].tag, 1u);
    EXPECT_EQ(wave[1].tag, 2u);
    EXPECT_EQ(q.size(), 2u);

    wave.clear();
    EXPECT_EQ(q.drainWave(wave), 9u);
    ASSERT_EQ(wave.size(), 1u);
    EXPECT_EQ(wave[0].tag, 0u);

    // The overflow event migrates into the ring as the clock advances.
    wave.clear();
    EXPECT_EQ(q.drainWave(wave), 500u);
    ASSERT_EQ(wave.size(), 1u);
    EXPECT_EQ(wave[0].tag, 3u);
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

    q.schedule(5, {1});
    q.schedule(5, {2});
    wave.clear();
    EXPECT_EQ(q.drainWave(wave), 5u);
    ASSERT_EQ(wave.size(), 2u);
    EXPECT_EQ(wave[0].tag, 1u);
    EXPECT_EQ(wave[1].tag, 2u);
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

TEST(CalendarQueue, DrainWaveAfterPopReturnsRestOfCycle)
{
    // pop() unlinks one node at a time, so a drainWave after it
    // returns the rest of that cycle, still in FIFO order.
    Queue q;
    for (uint32_t i = 0; i < 4; ++i)
        q.schedule(3, {i});
    q.schedule(4, {9});
    Ev ev;
    EXPECT_EQ(q.pop(ev), 3u);
    EXPECT_EQ(ev.tag, 0u);
    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 3u);
    ASSERT_EQ(wave.size(), 3u);
    EXPECT_EQ(wave[0].tag, 1u);
    EXPECT_EQ(wave[1].tag, 2u);
    EXPECT_EQ(wave[2].tag, 3u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(CalendarQueue, DrainWaveMatchesPopOnRandomSchedules)
{
    // Property: grouping drainWave output by cycle must equal what a
    // pop() loop yields on an identically-scheduled queue, including
    // in-wave follow-up schedules for future cycles.
    Rng rng(999);
    for (int round = 0; round < 20; ++round) {
        Queue byPop;
        Queue byWave;
        uint32_t tag = 0;
        for (int i = 0; i < 60; ++i) {
            const uint64_t cycle = rng.below(200);
            byPop.schedule(cycle, {tag});
            byWave.schedule(cycle, {tag});
            ++tag;
        }
        const auto popped = drain(byPop);

        std::vector<std::pair<uint64_t, uint32_t>> waved;
        std::vector<Ev> wave;
        while (!byWave.empty()) {
            wave.clear();
            const uint64_t cycle = byWave.drainWave(wave);
            for (const Ev &ev : wave)
                waved.push_back({cycle, ev.tag});
        }
        ASSERT_EQ(waved, popped) << "round " << round;
    }
}

TEST(CalendarQueueDeathTest, RewindOfNonEmptyQueueIsFatal)
{
    Queue q;
    q.schedule(10, {0});
    EXPECT_DEATH(q.rewind(0), "non-empty");
}

TEST(CalendarQueueDeathTest, RewindForwardsIsFatal)
{
    Queue q;
    q.schedule(10, {0});
    Ev ev;
    (void)q.pop(ev);
    EXPECT_DEATH(q.rewind(11), "forwards");
}

} // namespace
} // namespace nachos
