/**
 * @file
 * Allocation-free scheduling proof: global counting operator new.
 *
 * This binary replaces the global allocator with a counting wrapper
 * and asserts that the simulator's steady-state event paths — pooled
 * one-shot callbacks, reusable member events, and network sends —
 * perform ZERO heap allocations per event once warm, and that a whole
 * machine's protocol path (bus, controller handlers, network, fills)
 * stays below one allocation per hundred simulated references. It
 * lives in its own test target so the replaced operator new cannot
 * perturb (or be perturbed by) unrelated tests.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "net/network.hh"
#include "sim/event_queue.hh"
#include "system/machine.hh"
#include "workload/synthetic.hh"

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
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

namespace ccnuma
{
namespace
{

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

/** Representative hot-path capture: two pointers plus a message-ish
 * payload, comfortably inside SmallCallback<>::inlineBytes. */
struct Payload
{
    std::uint64_t words[10] = {};
};

TEST(AllocFree, PooledOneShotsSteadyState)
{
    EventQueue eq;
    std::uint64_t fired = 0;

    // Warm-up: populate the pool slabs at the peak outstanding count
    // the steady-state loop will reach.
    for (int i = 0; i < 128; ++i) {
        Payload pl;
        pl.words[0] = static_cast<std::uint64_t>(i);
        eq.scheduleFunctionIn([&fired, pl] { fired += pl.words[0]; },
                              static_cast<Tick>(i % 17));
    }
    eq.run();

    std::uint64_t before = allocCount();
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 64; ++i) {
            Payload pl;
            pl.words[0] = 1;
            // Mix near delays with far ones that park in the
            // overflow tier and migrate across window rotations.
            Tick delay = (i % 8 == 0)
                             ? 3 * EventQueue::wheelTicks
                             : static_cast<Tick>(i % 23);
            eq.scheduleFunctionIn(
                [&fired, pl] { fired += pl.words[0]; }, delay, 100,
                "steady one-shot");
        }
        eq.run();
    }
    EXPECT_EQ(allocCount() - before, 0u)
        << "pooled one-shot path allocated on the steady state";
    EXPECT_EQ(eq.callbackHeapFallbacks(), 0u);
    EXPECT_EQ(fired, 200u * 64u + 127u * 64u);
}

TEST(AllocFree, MemberEventRescheduleSteadyState)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    EventFunction ev([&fired] { ++fired; }, "member tick");

    eq.schedule(&ev, 1);
    eq.run();

    std::uint64_t before = allocCount();
    for (int i = 0; i < 10000; ++i) {
        eq.scheduleIn(&ev, static_cast<Tick>(1 + i % 5));
        if (i % 7 == 0) {
            // cancel/re-add cycle: unlink is in-place, no side table
            eq.deschedule(&ev);
            eq.scheduleIn(&ev, 2);
        }
        eq.run();
    }
    EXPECT_EQ(allocCount() - before, 0u)
        << "member-event reschedule path allocated";
    EXPECT_EQ(fired, 10001u);
}

TEST(AllocFree, NetworkSendSteadyState)
{
    EventQueue eq;
    Network net("alloc-net", eq, 4, NetworkParams{});
    std::uint64_t delivered = 0;

    for (int i = 0; i < 64; ++i) {
        net.send(static_cast<NodeId>(i % 4),
                 static_cast<NodeId>((i + 1) % 4), 96,
                 [&delivered] { ++delivered; });
    }
    eq.run();

    std::uint64_t before = allocCount();
    for (int round = 0; round < 500; ++round) {
        for (int i = 0; i < 12; ++i) {
            net.send(static_cast<NodeId>(i % 4),
                     static_cast<NodeId>((i + 1) % 4), 96,
                     [&delivered] { ++delivered; });
        }
        eq.run();
    }
    EXPECT_EQ(allocCount() - before, 0u)
        << "Network::send steady state allocated";
    EXPECT_EQ(eq.callbackHeapFallbacks(), 0u);
    EXPECT_EQ(delivered, 64u + 500u * 12u);
}

/** Simulated references of one run, and the allocations it made. */
struct ProtocolRun
{
    std::uint64_t refs = 0;
    std::uint64_t allocs = 0;
};

/**
 * Build and run the BM_ProtocolTransactions machine (4 nodes x 2
 * CPUs, PPC, Uniform with 90% shared references and 40% stores) over
 * a 16 KB shared region and 4 KB per thread, so that nearly every
 * reference is a coherence miss on a small, quickly warmed set of
 * lines.
 */
ProtocolRun
protocolRun(std::uint64_t refs_per_thread)
{
    const std::uint64_t before = allocCount();
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 4;
    cfg.node.procsPerNode = 2;
    cfg.withArch(Arch::PPC);
    Machine m(cfg);
    WorkloadParams p;
    p.numThreads = cfg.totalProcs();
    UniformWorkload::Knobs k;
    k.refsPerThread = refs_per_thread;
    k.sharedFraction = 0.9;
    k.writeFraction = 0.4;
    k.sharedBytes = 16 << 10;
    k.privateBytes = 4 << 10;
    UniformWorkload w(p, k);
    RunResult r = m.run(w);
    EXPECT_TRUE(r.completed);
    return {r.memRefs, allocCount() - before};
}

TEST(AllocFree, ProtocolPathSteadyState)
{
    // The warm-up run fills the thread's pools; the two fresh
    // machines after it differ only in run length, so the
    // difference in their allocations is what the extra coherence
    // transactions cost.
    protocolRun(2000);
    const ProtocolRun shorter = protocolRun(2000);
    const ProtocolRun longer = protocolRun(4000);
    ASSERT_GT(longer.refs, shorter.refs);
    const double per_ref =
        (static_cast<double>(longer.allocs) -
         static_cast<double>(shorter.allocs)) /
        static_cast<double>(longer.refs - shorter.refs);
    EXPECT_LT(per_ref, 0.01)
        << shorter.allocs << " allocations for " << shorter.refs
        << " references, " << longer.allocs << " for " << longer.refs;
}

} // namespace
} // namespace ccnuma
