/**
 * @file
 * Worker-thread and deterministic parallel-map tests (bench sweeps).
 */

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/parallel.hh"

namespace ccnuma
{
namespace
{

TEST(ThreadPool, HardwareJobsIsPositive)
{
    EXPECT_GE(hardwareJobs(), 1u);
}

TEST(ParallelMap, ResultsInInputOrder)
{
    std::vector<int> items(257);
    std::iota(items.begin(), items.end(), 0);
    // More workers than cores, fewer items than thread stride — the
    // collection order must still match the input order exactly.
    auto out = parallelMap(8, items, [](int v) { return v * v; });
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ParallelMap, SerialAndParallelAgree)
{
    std::vector<int> items(64);
    std::iota(items.begin(), items.end(), 1);
    auto fn = [](int v) { return 3 * v + 1; };
    auto serial = parallelMap(1, items, fn);
    auto parallel = parallelMap(6, items, fn);
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelForIndex, CoversEveryIndexOnce)
{
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallelForIndex(5, n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelForIndex, InlineWhenSingleJob)
{
    // jobs=1 must run on the calling thread (no pool, exact serial
    // semantics for the default bench configuration).
    std::thread::id caller = std::this_thread::get_id();
    std::set<std::thread::id> seen;
    parallelForIndex(1, 10, [&](std::size_t) {
        seen.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(*seen.begin(), caller);
}

TEST(ParallelForIndex, WorkersRunConcurrently)
{
    // With jobs >= n every index gets a worker of its own: each call
    // waits (bounded) until all n have started, which only happens if
    // they run at the same time.
    constexpr std::size_t n = 3;
    std::atomic<std::size_t> started{0};
    std::vector<int> sawAll(n, 0);
    std::set<std::thread::id> ids;
    std::mutex mu;
    parallelForIndex(8, n, [&](std::size_t i) {
        {
            std::lock_guard<std::mutex> g(mu);
            ids.insert(std::this_thread::get_id());
        }
        started.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started.load() < n &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        sawAll[i] = started.load() == n;
    });
    EXPECT_EQ(sawAll, std::vector<int>(n, 1));
    EXPECT_EQ(ids.size(), n);
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
}

TEST(ParallelForIndex, PropagatesFirstException)
{
    EXPECT_THROW(
        parallelForIndex(4, 100,
                         [](std::size_t i) {
                             if (i == 37)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
}

} // namespace
} // namespace ccnuma
