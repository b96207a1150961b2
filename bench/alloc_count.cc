/**
 * @file
 * Counting replacement of the global operator new for
 * bench_micro_simcore. It sits in its own translation unit so the
 * compiler never inlines the malloc/free pair into a new/delete site
 * of the benchmarks.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
