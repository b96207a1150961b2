/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * event queue throughput, cache lookups, and whole-protocol
 * transactions per second. These bound the wall-clock cost of the
 * table/figure reproductions.
 *
 * The binary counts operator new calls (one relaxed atomic add each,
 * bench/alloc_count.cc) so that BM_ProtocolTransactions can report
 * heap allocations per simulated reference next to its throughput.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "directory/directory.hh"
#include "mem/cache.hh"
#include "sim/event_queue.hh"
#include "sim/legacy_heap_queue.hh"
#include "system/machine.hh"
#include "workload/synthetic.hh"

/** operator new calls so far (bench/alloc_count.cc). */
std::uint64_t allocCount();

namespace ccnuma
{
namespace
{

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    EventQueue eq;
    Tick t = 1;
    for (auto _ : state) {
        eq.scheduleFunction([] {}, t);
        eq.step();
        ++t;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleFire);

void
BM_EventQueueBurst(benchmark::State &state)
{
    const int burst = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue eq;
        for (int i = 0; i < burst; ++i)
            eq.scheduleFunction([] {}, static_cast<Tick>(i % 97));
        eq.run();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * burst);
}
BENCHMARK(BM_EventQueueBurst)->Arg(64)->Arg(1024)->Arg(16384);

/**
 * The delay mix a coherence simulation actually schedules: the small
 * bus/memory/directory/network constants from Tables 1 and 3
 * dominate, with a sprinkle of long watchdog/retransmission timers
 * that land in the wheel's overflow heap (or deep in the legacy heap).
 */
inline Tick
realisticDelay(std::size_t i)
{
    static constexpr Tick kHot[] = {0,  2,  4,  4,  8,  8, 12, 14,
                                    16, 20, 28, 30, 46, 64};
    if (i % 128 == 127)
        return 12 * EventQueue::wheelTicks; // watchdog-scale timer
    return kHot[i % (sizeof(kHot) / sizeof(kHot[0]))];
}

/**
 * Steady-state schedule/fire throughput of the timing wheel under the
 * realistic delay mix, with a live population of 256 events.
 */
void
BM_WheelRealisticDelays(benchmark::State &state)
{
    EventQueue eq;
    std::size_t i = 0;
    for (; i < 256; ++i)
        eq.scheduleFunction([] {}, eq.curTick() + realisticDelay(i));
    for (auto _ : state) {
        eq.step();
        eq.scheduleFunction([] {},
                            eq.curTick() + realisticDelay(i++));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WheelRealisticDelays);

/**
 * The same steady-state pattern on the retained binary-heap oracle.
 * This is the apples-to-apples core-structure comparison (handles
 * only; no callback dispatch on either side would be even closer, but
 * the heap has no callback machinery at all, so the wheel number
 * above additionally pays pool + SmallCallback dispatch and still
 * wins).
 */
void
BM_LegacyHeapRealisticDelays(benchmark::State &state)
{
    LegacyHeapQueue heap;
    std::size_t i = 0;
    for (; i < 256; ++i)
        heap.schedule(heap.curTick() + realisticDelay(i), 100);
    LegacyHeapQueue::Fired f;
    for (auto _ : state) {
        heap.step(f);
        heap.schedule(heap.curTick() + realisticDelay(i++), 100);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LegacyHeapRealisticDelays);

/**
 * Guard for the wheel advance's cost under a parked population: park
 * state.range(0) far-future timers in the overflow heap and run a
 * near-term schedule/fire steady state whose 64-tick hop wraps the
 * 1024-tick wheel every 16 steps. The hop that crosses the window's
 * end parks in the heap too, so each wrap pays one O(log n) push and
 * pop, and deciding that no parked timer migrates is one comparison
 * against the heap top; a structure that walked the parked timers on
 * every wrap would collapse as the population grows. bench_gate.py
 * enforces Arg(4096) >= 0.5x Arg(64) items/s, a machine-independent
 * within-run invariant.
 */
void
BM_WheelParkedOverflow(benchmark::State &state)
{
    EventQueue eq;
    const std::size_t parked =
        static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i < parked; ++i) {
        // Far enough out that no iteration count migrates them into
        // the wheel; they stay parked for the whole measurement.
        eq.scheduleFunction([] {},
                            eq.curTick() + (Tick(1) << 40) +
                                static_cast<Tick>(i) * 64);
    }
    for (auto _ : state) {
        eq.scheduleFunction([] {}, eq.curTick() + 64);
        eq.step();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WheelParkedOverflow)->Arg(64)->Arg(4096);

void
BM_CacheHit(benchmark::State &state)
{
    SetAssocCache c("c", 1 << 20, 4, 128);
    for (Addr a = 0; a < 64 * 128; a += 128)
        c.allocate(a, LineState::Shared, nullptr);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.findLine(a));
        a = (a + 128) % (64 * 128);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheHit);

void
BM_CacheMissAllocate(benchmark::State &state)
{
    SetAssocCache c("c", 1 << 20, 4, 128);
    Addr a = 0;
    SetAssocCache::Victim v;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.allocate(a, LineState::Shared, &v));
        a += 128;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheMissAllocate);

/** Hot-loop addresses shared by the directory-lookup benchmarks. */
inline std::vector<Addr>
directoryWorkingSet(std::size_t lines)
{
    std::vector<Addr> addrs;
    addrs.reserve(lines);
    // Strided like a home node's share of an interleaved address
    // space: consecutive local lines are a node-count stride apart.
    for (std::size_t i = 0; i < lines; ++i)
        addrs.push_back(static_cast<Addr>(i) * 8 * 128);
    return addrs;
}

/**
 * DirectoryStore entry lookups (the open-addressed LineMap) over an
 * 8K-line working set — the hottest associative lookup in the
 * simulator's home-side handlers.
 */
void
BM_DirectoryLookup(benchmark::State &state)
{
    DirectoryStore dir("dir", DirectoryParams{}, 128);
    const std::vector<Addr> addrs = directoryWorkingSet(8192);
    for (Addr a : addrs)
        dir.entry(a).addSharer(1);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dir.entry(addrs[i]));
        i = (i + 1) % addrs.size();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DirectoryLookup);

/** Reference point: the same lookups on std::unordered_map. */
void
BM_DirectoryLookupUnorderedMap(benchmark::State &state)
{
    std::unordered_map<Addr, DirEntry> entries;
    const std::vector<Addr> addrs = directoryWorkingSet(8192);
    for (Addr a : addrs)
        entries[a].addSharer(1);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(entries[addrs[i]]);
        i = (i + 1) % addrs.size();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DirectoryLookupUnorderedMap);

void
BM_ProtocolTransactions(benchmark::State &state)
{
    // End-to-end cost of simulated remote misses, measured as
    // simulated memory references per wall second. allocs_per_ref
    // counts the heap allocations Machine::run made per simulated
    // reference (construction excluded).
    std::uint64_t refs = 0;
    std::uint64_t allocs = 0;
    for (auto _ : state) {
        MachineConfig cfg = MachineConfig::base();
        cfg.numNodes = 4;
        cfg.node.procsPerNode = 2;
        cfg.withArch(Arch::PPC);
        Machine m(cfg);
        WorkloadParams p;
        p.numThreads = cfg.totalProcs();
        UniformWorkload::Knobs k;
        k.refsPerThread = 2000;
        k.sharedFraction = 0.9;
        k.writeFraction = 0.4;
        UniformWorkload w(p, k);
        const std::uint64_t before = allocCount();
        RunResult r = m.run(w);
        allocs += allocCount() - before;
        refs += r.memRefs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
    state.counters["allocs_per_ref"] =
        refs ? static_cast<double>(allocs) / static_cast<double>(refs)
             : 0.0;
}
BENCHMARK(BM_ProtocolTransactions)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace ccnuma

BENCHMARK_MAIN();
