/**
 * @file
 * Worker threads for parallel bench sweeps.
 *
 * The simulator itself is strictly single-threaded and deterministic:
 * one Machine owns one EventQueue and never shares mutable state with
 * another. That isolation is what makes sweep-level parallelism free —
 * each (architecture × workload) point builds its own Machine, so N
 * points can run on N threads with bit-identical per-point results.
 *
 * parallelForIndex() starts its own workers, which take indices from
 * one atomic counter, and joins them before returning; parallelMap()
 * is the deterministic-order helper the benches use: results come
 * back indexed by input position regardless of which worker finished
 * first, and the first exception (if any) is rethrown in the caller
 * after all workers drain.
 */

#ifndef CCNUMA_SIM_PARALLEL_HH
#define CCNUMA_SIM_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ccnuma
{

/** @return the machine's hardware concurrency (at least 1). */
inline unsigned
hardwareJobs()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Apply @p fn to every index in [0, n) on min(jobs, n) worker threads.
 * Index order of execution is unspecified; completion is awaited.
 * jobs <= 1 runs inline (no threads), preserving exact serial
 * behavior for the default bench configuration.
 */
template <typename Fn>
void
parallelForIndex(unsigned jobs, std::size_t n, Fn &&fn)
{
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::mutex emu;
    std::exception_ptr first;
    auto work = [&] {
        while (true) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> g(emu);
                if (!first)
                    first = std::current_exception();
            }
        }
    };
    {
        // jthread joins on destruction, also if a later thread fails
        // to start.
        std::vector<std::jthread> workers;
        const std::size_t spawn = std::min<std::size_t>(jobs, n);
        workers.reserve(spawn);
        for (std::size_t w = 0; w < spawn; ++w)
            workers.emplace_back(work);
    }
    if (first)
        std::rethrow_exception(first);
}

/**
 * Map @p fn over @p items on @p jobs workers and return the results
 * in input order — the deterministic-collection primitive for bench
 * sweeps. @p fn must be callable concurrently from multiple threads.
 */
template <typename T, typename Fn>
auto
parallelMap(unsigned jobs, const std::vector<T> &items, Fn &&fn)
    -> std::vector<std::decay_t<decltype(fn(items[0]))>>
{
    using R = std::decay_t<decltype(fn(items[0]))>;
    std::vector<R> results(items.size());
    parallelForIndex(jobs, items.size(),
                     [&](std::size_t i) { results[i] = fn(items[i]); });
    return results;
}

} // namespace ccnuma

#endif // CCNUMA_SIM_PARALLEL_HH
