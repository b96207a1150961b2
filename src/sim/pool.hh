/**
 * @file
 * Per-thread size-class free-list pool for the protocol layers' node
 * containers.
 *
 * A coherence transaction inserts into and erases from a handful of
 * per-line maps and queues (the controller's home and requester
 * transactions, its engine queues and bus fetches, the bus's open
 * transactions and grant queue). With std::allocator every one of those
 * operations is a malloc/free pair. PoolAllocator serves them from
 * per-thread free lists instead, one list per 16-byte size class up to
 * maxBytes: a freed block is pushed onto its class's list and the next
 * request of that class pops it, so a warm machine recycles the same
 * blocks for its whole run and the next machine on the thread inherits
 * them.
 *
 * Every block is its own operator new allocation, so a block may be
 * freed on a different thread than the one that allocated it (a
 * machine built on one thread and run on shard workers): it simply
 * joins the freeing thread's lists. A thread's lists are returned to
 * operator delete when the thread exits, which keeps LeakSanitizer
 * quiet for the worker threads parallelForIndex and the sharded
 * scheduler start on every call.
 *
 * Under AddressSanitizer a block is poisoned while it sits on a free
 * list and unpoisoned when it is handed out, so a use-after-free of a
 * recycled block is still reported (as use-after-poison). Without
 * ASan both annotations compile to nothing.
 *
 * The containers keep their std:: types: only where their nodes come
 * from changes, never their iteration order, which reaches simulated
 * state (DESIGN.md §14).
 */

#ifndef CCNUMA_SIM_POOL_HH
#define CCNUMA_SIM_POOL_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ccnuma
{
namespace pool
{

/** Size-class granularity (and the alignment every block keeps). */
inline constexpr std::size_t granule = 16;
/** Largest request served from a free list; larger ones bypass it. */
inline constexpr std::size_t maxBytes = 1024;

/** @return @p bytes of storage, recycled when the class has a block. */
void *allocate(std::size_t bytes);

/** Return storage from allocate(@p bytes) to this thread's lists. */
void deallocate(void *p, std::size_t bytes) noexcept;

/** Blocks parked on the calling thread's free lists. */
std::uint64_t cachedBlocks() noexcept;

/**
 * Hand every block on the calling thread's lists back to operator
 * delete. Runs automatically when the thread exits.
 */
void release() noexcept;

/**
 * Stateless allocator over the pool. All instances are
 * interchangeable, so containers move and swap freely.
 */
template <typename T>
struct PoolAllocator
{
    using value_type = T;

    PoolAllocator() noexcept = default;
    template <typename U>
    PoolAllocator(const PoolAllocator<U> &) noexcept
    {}

    T *
    allocate(std::size_t n)
    {
        // Checked here, not at class scope: a container of a nested
        // type instantiates its allocator before the type is complete.
        static_assert(alignof(T) <= granule,
                      "pool blocks are 16-byte aligned");
        return static_cast<T *>(pool::allocate(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        pool::deallocate(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const PoolAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** Destroys a pool-allocated object and recycles its block. */
template <typename T>
struct Delete
{
    void
    operator()(T *p) const noexcept
    {
        p->~T();
        pool::deallocate(p, sizeof(T));
    }
};

template <typename T>
using Ptr = std::unique_ptr<T, Delete<T>>;

/** Construct a T in a pool block. */
template <typename T, typename... Args>
Ptr<T>
make(Args &&...args)
{
    void *mem = pool::allocate(sizeof(T));
    try {
        return Ptr<T>(::new (mem) T(std::forward<Args>(args)...));
    } catch (...) {
        pool::deallocate(mem, sizeof(T));
        throw;
    }
}

} // namespace pool

template <typename K, typename V>
using PooledMap =
    std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                       pool::PoolAllocator<std::pair<const K, V>>>;

template <typename T>
using PooledDeque = std::deque<T, pool::PoolAllocator<T>>;

template <typename T>
using PooledVector = std::vector<T, pool::PoolAllocator<T>>;

} // namespace ccnuma

#endif // CCNUMA_SIM_POOL_HH
