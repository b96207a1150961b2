#include "sim/pool.hh"

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) \
    ((void)(addr), (void)(size))
#endif

namespace ccnuma
{
namespace pool
{
namespace
{

constexpr std::size_t numClasses = maxBytes / granule;

struct Block
{
    Block *next;
};

/**
 * One thread's free lists. Constant-initialised and trivially
 * destructible, so it stays usable while the thread's other
 * thread_local objects are destroyed. It is defined here, next to its
 * only users, so every access is a direct thread-pointer offset: an
 * extern thread_local used from other files goes through a GOT offset
 * that the linker relaxes, after which gcc 12's UBSan null check on
 * its address reads stale flags and reports a null reference.
 */
struct Lists
{
    Block *head[numClasses];
    std::uint64_t blocks;
    /** The thread-exit release is registered. */
    bool armed;
    /** The thread is exiting: frees bypass the lists from now on. */
    bool retired;
};

thread_local constinit Lists lists{};

/** Releases the thread's lists when the thread exits. */
struct Releaser
{
    Releaser() = default;
    Releaser(const Releaser &) = delete;
    Releaser &operator=(const Releaser &) = delete;
    ~Releaser()
    {
        release();
        lists.retired = true;
    }
};

void
arm()
{
    static thread_local Releaser releaser;
    (void)releaser;
    lists.armed = true;
}

std::size_t
classOf(std::size_t bytes)
{
    return (bytes - 1) / granule;
}

std::size_t
blockBytes(std::size_t cls)
{
    return (cls + 1) * granule;
}

} // namespace

void *
allocate(std::size_t bytes)
{
    if (bytes == 0 || bytes > maxBytes)
        return ::operator new(bytes);
    const std::size_t cls = classOf(bytes);
    Block *b = lists.head[cls];
    if (b == nullptr)
        return ::operator new(blockBytes(cls));
    ASAN_UNPOISON_MEMORY_REGION(b, blockBytes(cls));
    lists.head[cls] = b->next;
    --lists.blocks;
    return b;
}

void
deallocate(void *p, std::size_t bytes) noexcept
{
    if (bytes == 0 || bytes > maxBytes || lists.retired) {
        ::operator delete(p);
        return;
    }
    if (!lists.armed)
        arm();
    const std::size_t cls = classOf(bytes);
    auto *b = static_cast<Block *>(p);
    b->next = lists.head[cls];
    lists.head[cls] = b;
    ++lists.blocks;
    ASAN_POISON_MEMORY_REGION(b, blockBytes(cls));
}

std::uint64_t
cachedBlocks() noexcept
{
    return lists.blocks;
}

void
release() noexcept
{
    for (std::size_t c = 0; c < numClasses; ++c) {
        Block *b = lists.head[c];
        while (b != nullptr) {
            ASAN_UNPOISON_MEMORY_REGION(b, blockBytes(c));
            Block *next = b->next;
            ::operator delete(b);
            b = next;
        }
        lists.head[c] = nullptr;
    }
    lists.blocks = 0;
}

} // namespace pool
} // namespace ccnuma
