#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "service/job_queue.hh"
#include "workloads/benchmark_info.hh"

namespace nachos {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<Job>
makeJob(uint64_t id, AdmitClass klass = AdmitClass::Interactive,
        const char *workload = "164.gzip", uint64_t seed = 1)
{
    auto job = std::make_shared<Job>();
    job->requestId = id;
    job->spec.info = findBenchmark(workload);
    job->spec.request.seed = seed;
    job->spec.klass = klass;
    return job;
}

TEST(JobQueue, FifoOrderWithinAClass)
{
    JobQueue q(4, 4);
    EXPECT_TRUE(q.tryPush(makeJob(1)));
    EXPECT_TRUE(q.tryPush(makeJob(2)));
    EXPECT_TRUE(q.tryPush(makeJob(3)));
    EXPECT_EQ(q.depth(AdmitClass::Interactive), 3u);
    EXPECT_EQ(q.claim()->requestId, 1u);
    EXPECT_EQ(q.claim()->requestId, 2u);
    EXPECT_EQ(q.claim()->requestId, 3u);
    EXPECT_EQ(q.depth(AdmitClass::Interactive), 0u);
}

TEST(JobQueue, ClaimMakesTheJobRunning)
{
    JobQueue q(4, 4);
    auto job = makeJob(1);
    ASSERT_TRUE(q.tryPush(job));
    EXPECT_EQ(job->state.load(), JobState::Queued);
    ASSERT_EQ(q.claim(), job);
    // The Queued -> Running transition happened inside the ring lock;
    // there is no popped-but-still-Queued window for the watchdog.
    EXPECT_EQ(job->state.load(), JobState::Running);
}

TEST(JobQueue, InteractiveHasPriorityOverBulk)
{
    JobQueue q(4, 4);
    ASSERT_TRUE(q.tryPush(makeJob(1, AdmitClass::Bulk)));
    ASSERT_TRUE(q.tryPush(makeJob(2, AdmitClass::Interactive)));
    EXPECT_EQ(q.depth(AdmitClass::Interactive), 1u);
    EXPECT_EQ(q.depth(AdmitClass::Bulk), 1u);
    EXPECT_EQ(q.claim()->requestId, 2u); // interactive first
    EXPECT_EQ(q.claim()->requestId, 1u);
}

TEST(JobQueue, PerClassCapacityBoundsAdmission)
{
    JobQueue q(1, 2);
    EXPECT_TRUE(q.tryPush(makeJob(1)));
    EXPECT_FALSE(q.tryPush(makeJob(2))); // interactive ring full
    // The bulk ring is bounded independently.
    EXPECT_TRUE(q.tryPush(makeJob(3, AdmitClass::Bulk)));
    EXPECT_TRUE(q.tryPush(makeJob(4, AdmitClass::Bulk)));
    EXPECT_FALSE(q.tryPush(makeJob(5, AdmitClass::Bulk)));
    q.claim();
    EXPECT_TRUE(q.tryPush(makeJob(6))); // slot freed
}

TEST(JobQueue, OnAdmitRunsOnlyOnAdmission)
{
    JobQueue q(1, 1);
    int admitted = 0;
    auto bump = [&] { ++admitted; };
    EXPECT_TRUE(q.tryPush(makeJob(1), bump));
    EXPECT_FALSE(q.tryPush(makeJob(2), bump)); // full: no callback
    EXPECT_EQ(admitted, 1);
}

TEST(JobQueue, BulkJobsAreClaimedOneAtATime)
{
    JobQueue q(8, 8);
    // Identical bulk jobs (same region, same machine) are still
    // separate claims: every claim hands out exactly one job.
    for (uint64_t id = 1; id <= 3; ++id)
        ASSERT_TRUE(q.tryPush(makeJob(id, AdmitClass::Bulk)));
    for (uint64_t id = 1; id <= 3; ++id) {
        std::shared_ptr<Job> job = q.claim();
        ASSERT_NE(job, nullptr);
        EXPECT_EQ(job->requestId, id);
        EXPECT_EQ(job->state.load(), JobState::Running);
        EXPECT_EQ(q.depth(AdmitClass::Bulk), 3 - id);
    }
}

TEST(JobQueue, MismatchedBulkJobsKeepTheirTurn)
{
    JobQueue q(8, 8);
    // Region work and machine config never reorder the bulk ring.
    auto other = makeJob(2, AdmitClass::Bulk, "164.gzip", 9);
    other->spec.request.machine.lsqBanks = 1;
    ASSERT_TRUE(q.tryPush(makeJob(1, AdmitClass::Bulk, "164.gzip", 1)));
    ASSERT_TRUE(q.tryPush(other));
    ASSERT_TRUE(q.tryPush(makeJob(3, AdmitClass::Bulk, "164.gzip", 1)));
    for (uint64_t id = 1; id <= 3; ++id)
        EXPECT_EQ(q.claim()->requestId, id);
}

TEST(JobQueue, CloseRejectsPushesAndDrainsClaimers)
{
    JobQueue q(4, 4);
    ASSERT_TRUE(q.tryPush(makeJob(1)));
    q.close();
    EXPECT_FALSE(q.tryPush(makeJob(2)));
    // Already-admitted work still drains...
    EXPECT_NE(q.claim(), nullptr);
    // ...then claimers get null instead of blocking.
    EXPECT_EQ(q.claim(), nullptr);
}

TEST(JobQueue, CloseWakesBlockedClaimer)
{
    JobQueue q(4, 4);
    std::atomic<bool> gotNull{false};
    std::thread claimer([&] { gotNull = q.claim() == nullptr; });
    std::this_thread::sleep_for(20ms);
    q.close();
    claimer.join();
    EXPECT_TRUE(gotNull);
}

TEST(JobQueue, CancelOnlyWhileQueued)
{
    JobQueue q(4, 4);
    auto job = makeJob(1);
    ASSERT_TRUE(q.tryPush(job));
    EXPECT_TRUE(q.cancel(job));
    EXPECT_EQ(job->state.load(), JobState::Cancelled);
    // Cancelling twice (or after the job left the queue) fails.
    EXPECT_FALSE(q.cancel(job));

    auto claimed = makeJob(2);
    ASSERT_TRUE(q.tryPush(claimed));
    // The cancelled corpse is skipped; claim returns the live job.
    std::shared_ptr<Job> next = q.claim();
    ASSERT_NE(next, nullptr);
    EXPECT_EQ(next->requestId, 2u);
    EXPECT_FALSE(q.cancel(claimed));
}

TEST(JobQueue, ClaimSkipsTimedOutCorpses)
{
    JobQueue q(4, 4);
    auto dead = makeJob(1);
    auto live = makeJob(2);
    ASSERT_TRUE(q.tryPush(dead));
    ASSERT_TRUE(q.tryPush(live));
    // Watchdog expired the queued job before any worker claimed it.
    ASSERT_TRUE(dead->tryTransition(JobState::Queued,
                                    JobState::TimedOut));
    EXPECT_EQ(q.claim()->requestId, 2u);
}

TEST(Job, TransitionIsExactlyOnce)
{
    auto job = makeJob(1);
    // Worker, watchdog, and cancel race; exactly one wins.
    std::atomic<int> winners{0};
    std::vector<std::thread> racers;
    for (const JobState to :
         {JobState::Running, JobState::TimedOut, JobState::Cancelled}) {
        racers.emplace_back([&, to] {
            if (job->tryTransition(JobState::Queued, to))
                ++winners;
        });
    }
    for (std::thread &t : racers)
        t.join();
    EXPECT_EQ(winners.load(), 1);
}

/**
 * Satellite 1 regression: cancel, the watchdog's timeout, and worker
 * claims race on the same queue; every job must end with exactly one
 * owner (claimed, cancelled, or timed out — never two of them, never
 * zero). Under the old pop-then-transition scheme, the watchdog could
 * time out a job a worker had already popped, producing two owners.
 */
TEST(JobQueue, ClaimCancelTimeoutStress)
{
    constexpr int kJobs = 400;
    JobQueue q(kJobs, kJobs);
    std::vector<std::shared_ptr<Job>> jobs;
    jobs.reserve(kJobs);
    for (uint64_t id = 1; id <= kJobs; ++id) {
        // Half interactive, half bulk, so both rings participate in
        // the race.
        auto job = makeJob(id, id % 2 ? AdmitClass::Interactive
                                      : AdmitClass::Bulk);
        jobs.push_back(job);
        ASSERT_TRUE(q.tryPush(job));
    }

    std::atomic<int> claimed{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < 2; ++w) { // claiming workers
        threads.emplace_back([&] {
            while (q.claim())
                ++claimed;
        });
    }
    std::atomic<int> cancelled{0};
    threads.emplace_back([&] { // cancel requests, front to back
        for (const auto &job : jobs)
            if (q.cancel(job))
                ++cancelled;
    });
    std::atomic<int> timedOut{0};
    threads.emplace_back([&] { // watchdog expiring queued jobs
        for (size_t i = jobs.size(); i-- > 0;)
            if (jobs[i]->tryTransition(JobState::Queued,
                                       JobState::TimedOut))
                ++timedOut;
    });
    std::this_thread::sleep_for(50ms);
    q.close();
    for (std::thread &t : threads)
        t.join();

    // Exactly one owner per job, and the tallies add up.
    EXPECT_EQ(claimed + cancelled + timedOut, kJobs);
    int running = 0, dead = 0;
    for (const auto &job : jobs) {
        switch (job->state.load()) {
        case JobState::Running:
            ++running;
            break;
        case JobState::Cancelled:
        case JobState::TimedOut:
            ++dead;
            break;
        default:
            ADD_FAILURE() << "job " << job->requestId
                          << " ended Queued/Done";
        }
    }
    EXPECT_EQ(running, claimed.load());
    EXPECT_EQ(dead, cancelled.load() + timedOut.load());
    EXPECT_EQ(q.depth(AdmitClass::Interactive), 0u);
    EXPECT_EQ(q.depth(AdmitClass::Bulk), 0u);
}

TEST(JobQueue, ConcurrentProducersConsumers)
{
    JobQueue q(1024, 1024);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 200;
    std::atomic<int> consumed{0};
    std::atomic<uint64_t> idSum{0};

    std::vector<std::thread> consumers;
    for (int c = 0; c < 2; ++c) {
        consumers.emplace_back([&] {
            while (std::shared_ptr<Job> job = q.claim()) {
                idSum += job->requestId;
                ++consumed;
            }
        });
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                const uint64_t id =
                    static_cast<uint64_t>(p) * kPerProducer + i + 1;
                // Mixed classes exercise both rings.
                while (!q.tryPush(makeJob(id, id % 3
                                                  ? AdmitClass::Bulk
                                                  : AdmitClass::
                                                        Interactive)))
                    std::this_thread::yield();
            }
        });
    }
    for (std::thread &t : producers)
        t.join();
    // Close only after every producer is done; consumers then drain.
    q.close();
    for (std::thread &t : consumers)
        t.join();

    constexpr uint64_t kTotal = kProducers * kPerProducer;
    EXPECT_EQ(consumed.load(), static_cast<int>(kTotal));
    EXPECT_EQ(idSum.load(), kTotal * (kTotal + 1) / 2);
}

} // namespace
} // namespace nachos
