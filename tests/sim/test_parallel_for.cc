/**
 * @file
 * Tests for parallelFor: every index runs exactly once and has run
 * when parallelFor returns, results collected by index do not depend
 * on the job count, jobs = 0 selects at least one worker, one worker
 * runs in index order on the caller, the worker count is clamped to
 * the index count, the lowest-indexed exception wins without
 * cancelling the rest, and a many-round churn case for the
 * ThreadSanitizer build. parallelForLargestFirst runs the largest
 * sizes first, equal sizes in index order, and every index once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/parallel_for.hh"

namespace
{

using namespace odbsim;

/** Pure per-index value for the determinism checks. */
std::uint64_t
mixIndex(std::size_t i)
{
    std::uint64_t x = static_cast<std::uint64_t>(i) +
                      0x9e3779b97f4a7c15ULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    return x;
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 200;
    std::vector<int> hits(n, 0); // distinct slots: no data race
    parallelFor(4, n, [&](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, BlocksUntilAllIndicesComplete)
{
    std::atomic<int> done{0};
    parallelFor(3, 64, [&](std::size_t) {
        done.fetch_add(1, std::memory_order_relaxed);
    });
    // parallelFor returned, so every index must have finished.
    EXPECT_EQ(done.load(), 64);
}

TEST(ParallelFor, CollectByIndexIsIdenticalAcrossJobCounts)
{
    constexpr std::size_t n = 512;
    std::vector<std::uint64_t> ref(n);
    for (std::size_t i = 0; i < n; ++i)
        ref[i] = mixIndex(i);
    // 0 selects the hardware thread count; the others claim indices in
    // different interleavings, which collecting by index must erase.
    for (const unsigned jobs : {0u, 1u, 2u, 3u, 4u, 7u}) {
        std::vector<std::uint64_t> got(n, 0);
        parallelFor(jobs, n, [&](std::size_t i) { got[i] = mixIndex(i); });
        EXPECT_EQ(got, ref) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, JobCountNeverChangesResults)
{
    // Index counts at and below the job counts, where the clamp decides
    // how many workers start, and one well above them.
    for (const std::size_t n : {1u, 2u, 3u, 5u, 200u}) {
        std::vector<std::uint64_t> ref(n);
        for (std::size_t i = 0; i < n; ++i)
            ref[i] = mixIndex(i);
        for (const unsigned jobs : {0u, 1u, 2u, 5u}) {
            std::vector<std::uint64_t> got(n, 0);
            parallelFor(jobs, n,
                        [&](std::size_t i) { got[i] = mixIndex(i); });
            EXPECT_EQ(got, ref) << "n=" << n << " jobs=" << jobs;
        }
    }
}

TEST(ParallelFor, ZeroJobsSelectsAtLeastOneWorker)
{
    // 0 = hardware concurrency, at least 1: every index runs, on at
    // least the caller and on no more threads than the host reports.
    constexpr std::size_t n = 64;
    std::mutex m;
    std::vector<int> hits(n, 0);   // guarded by m
    std::set<std::thread::id> ids; // guarded by m
    parallelFor(0, n, [&](std::size_t i) {
        std::lock_guard<std::mutex> lock(m);
        hits[i] += 1;
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(hits, std::vector<int>(n, 1));
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(),
              std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

TEST(ParallelFor, OneWorkerRunsInIndexOrderOnTheCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool on_caller = true;
    parallelFor(1, 16, [&](std::size_t i) {
        order.push_back(i);
        on_caller = on_caller && std::this_thread::get_id() == caller;
    });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_TRUE(on_caller);
}

TEST(ParallelFor, LargestFirstRunsDescendingSizesStably)
{
    const std::vector<int> sizes = {2, 5, 2, 9, 5, 1};
    const auto size = [&](std::size_t i) { return sizes[i]; };

    // One worker runs on the caller in dispatch order: 9, then the two
    // 5s and the two 2s each in index order, then 1.
    std::vector<std::size_t> order;
    parallelForLargestFirst(1, sizes.size(), size,
                            [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{3, 1, 4, 0, 2, 5}));

    std::vector<std::atomic<int>> hits(sizes.size()); // one slot each
    parallelForLargestFirst(4, sizes.size(), size, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ZeroIndicesCallsNothing)
{
    for (const unsigned jobs : {0u, 1u, 4u}) {
        int calls = 0;
        parallelFor(jobs, 0, [&](std::size_t) { ++calls; });
        EXPECT_EQ(calls, 0) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, NeverStartsMoreWorkersThanIndices)
{
    // Each index waits until all three are in flight, so the three
    // workers a clamped parallelFor starts (two threads and the caller)
    // hold one index each. Unclamped, the caller is still starting 63
    // threads when the first ones claim every index. Modest on
    // purpose: a broken clamp starts 64 threads, not thousands.
    constexpr std::size_t n = 3;
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex m;
    std::condition_variable all_in;
    std::vector<int> hits(n, 0);   // guarded by m
    std::set<std::thread::id> ids; // guarded by m
    bool timed_out = false;        // guarded by m
    parallelFor(64, n, [&](std::size_t i) {
        std::unique_lock<std::mutex> lock(m);
        hits[i] += 1;
        ids.insert(std::this_thread::get_id());
        all_in.notify_all();
        const auto in_flight = [&] {
            return hits[0] + hits[1] + hits[2] == static_cast<int>(n);
        };
        if (!all_in.wait_for(lock, std::chrono::seconds(10), in_flight))
            timed_out = true;
    });
    EXPECT_EQ(hits, std::vector<int>({1, 1, 1}));
    EXPECT_FALSE(timed_out);
    EXPECT_EQ(ids.size(), 3u);
    EXPECT_EQ(ids.count(caller), 1u);
}

TEST(ParallelFor, RethrowsLowestIndexedExceptionAfterRunningTheRest)
{
    std::atomic<int> completed{0};
    try {
        parallelFor(4, 32, [&](std::size_t i) {
            if (i == 5 || i == 20)
                throw std::invalid_argument(std::to_string(i));
            completed.fetch_add(1, std::memory_order_relaxed);
        });
        FAIL() << "expected an exception";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "5"); // lowest failing index wins
    }
    // No partial cancellation: every non-throwing index still ran.
    EXPECT_EQ(completed.load(), 30);
}

TEST(ParallelFor, ChurnHundredsOfRoundsStaysCoherent)
{
    // The ThreadSanitizer build race-checks thread start, the shared
    // index counter and the join over many short rounds.
    std::atomic<std::uint64_t> sum{0};
    for (int round = 0; round < 300; ++round) {
        parallelFor(4, 8, [&](std::size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(sum.load(), 300ull * 36);
}

} // namespace
