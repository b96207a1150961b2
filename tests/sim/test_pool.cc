/**
 * @file
 * The per-thread size-class pool behind the protocol layers' node
 * containers: blocks recycle within their size class, a thread's
 * lists can be released, blocks may cross threads, pooled maps walk
 * in the same order as std::allocator ones, and under AddressSanitizer
 * a block on a free list is poisoned.
 */

#include <gtest/gtest.h>

#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/pool.hh"

#if defined(__SANITIZE_ADDRESS__)
#define CCNUMA_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CCNUMA_TEST_ASAN 1
#endif
#endif
#ifdef CCNUMA_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ccnuma
{
namespace
{

TEST(Pool, RecyclesBlocksWithinTheirSizeClass)
{
    pool::release();
    void *a = pool::allocate(40); // the 48-byte class
    pool::deallocate(a, 40);
    EXPECT_EQ(pool::cachedBlocks(), 1u);
    // Another class does not take it ...
    void *other = pool::allocate(100);
    EXPECT_NE(other, a);
    EXPECT_EQ(pool::cachedBlocks(), 1u);
    // ... any size of the same class does.
    void *b = pool::allocate(48);
    EXPECT_EQ(b, a);
    EXPECT_EQ(pool::cachedBlocks(), 0u);
    pool::deallocate(b, 48);
    pool::deallocate(other, 100);
    // Requests past the largest class bypass the lists.
    void *big = pool::allocate(pool::maxBytes + 1);
    pool::deallocate(big, pool::maxBytes + 1);
    EXPECT_EQ(pool::cachedBlocks(), 2u);
    pool::release();
    EXPECT_EQ(pool::cachedBlocks(), 0u);
}

TEST(Pool, BlocksCrossThreadsAndWorkerListsDieWithTheWorker)
{
    // A map filled on a worker thread outlives the worker; its nodes
    // are freed on this thread and join this thread's lists. The
    // worker's own lists go back to operator delete as it exits
    // (LeakSanitizer checks that in the sanitizer build).
    pool::release();
    PooledMap<int, int> m;
    std::uint64_t worker_cached = 0;
    std::thread worker([&] {
        for (int i = 0; i < 64; ++i)
            m[i] = i;
        PooledVector<int> scratch(100);
        scratch.clear();
        scratch.shrink_to_fit();
        worker_cached = pool::cachedBlocks();
    });
    worker.join();
    EXPECT_GE(worker_cached, 1u); // lists are per thread ...
    EXPECT_EQ(pool::cachedBlocks(), 0u); // ... so this one is empty
    EXPECT_EQ(m.size(), 64u);
    m.clear();
    EXPECT_GE(pool::cachedBlocks(), 64u);
    pool::release();
}

TEST(Pool, MapsWalkInStdAllocatorOrder)
{
    // Only where the nodes come from changes: the same inserts and
    // erases leave a pooled map in the iteration order of a plain
    // one, which the controller's crash and recovery sweeps rely on.
    PooledMap<std::uint64_t, int> pooled;
    std::unordered_map<std::uint64_t, int> plain;
    std::uint64_t x = 12345;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t key = (x >> 40) & ~std::uint64_t(127);
        if ((x >> 13) % 3 == 0) {
            pooled.erase(key);
            plain.erase(key);
        } else {
            pooled[key] = i;
            plain[key] = i;
        }
    }
    std::vector<std::pair<std::uint64_t, int>> a(pooled.begin(),
                                                 pooled.end());
    std::vector<std::pair<std::uint64_t, int>> b(plain.begin(),
                                                 plain.end());
    EXPECT_EQ(a, b);
}

TEST(Pool, PooledObjectsRecycleTheirBlock)
{
    struct Obj
    {
        std::uint64_t words[20] = {};
    };
    pool::release();
    pool::Ptr<Obj> p = pool::make<Obj>();
    Obj *first = p.get();
    p.reset();
    EXPECT_EQ(pool::cachedBlocks(), 1u);
#ifdef CCNUMA_TEST_ASAN
    // A use of a recycled block is a use-after-poison report.
    EXPECT_TRUE(__asan_address_is_poisoned(first));
#endif
    p = pool::make<Obj>();
    EXPECT_EQ(p.get(), first);
#ifdef CCNUMA_TEST_ASAN
    EXPECT_FALSE(__asan_address_is_poisoned(first));
#endif
    p.reset();
    pool::release();
}

} // namespace
} // namespace ccnuma
