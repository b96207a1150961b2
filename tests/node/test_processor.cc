/**
 * @file
 * Processor accounting tests: instruction counts, stall attribution,
 * and sync-wait bookkeeping on a controlled single-node harness.
 */

#include <gtest/gtest.h>

#include "mem/address_map.hh"
#include "node/processor.hh"

namespace ccnuma
{
namespace
{

struct LocalHook : BusCoherenceHook
{
    SupplyDecision
    busObserve(BusTxn &txn, SnoopResult combined) override
    {
        if (txn.cmd == BusCmd::WriteBack)
            return SupplyDecision::Memory;
        if (txn.cmd == BusCmd::Inval)
            return SupplyDecision::NoData;
        if (combined == SnoopResult::DirtySupply)
            return SupplyDecision::CacheReflect;
        txn.exclusiveOk = true;
        return SupplyDecision::Memory;
    }
};

struct ProcFixture : ::testing::Test
{
    EventQueue eq;
    AddressMap map{1, 4096};
    BusParams busParams;
    MemoryParams memParams;
    std::unique_ptr<Bus> bus;
    std::unique_ptr<MemoryController> mem;
    LocalHook hook;
    SyncManager sync{"sync", eq, 0x4000'0000, 128};
    std::uint64_t versions = 0;
    std::unique_ptr<CacheUnit> cache;
    std::unique_ptr<Processor> proc;

    void
    SetUp() override
    {
        bus = std::make_unique<Bus>("bus", eq, busParams, 128);
        mem = std::make_unique<MemoryController>("mem", memParams, 128);
        bus->setMemory(mem.get());
        bus->setCoherenceHook(&hook);
        CacheUnitParams p;
        cache = std::make_unique<CacheUnit>(
            "c", eq, *bus, map, 0, p,
            [this] { return ++versions; });
        proc = std::make_unique<Processor>("p", eq, 0, 0, *cache,
                                           sync, ProcessorParams{});
        sync.setBarrierParticipants(1);
    }

    Tick
    runOps(std::vector<ThreadOp> ops)
    {
        auto gen = [](std::vector<ThreadOp> v) -> OpStream {
            for (const ThreadOp &op : v)
                co_yield op;
        };
        proc->setProgram(gen(std::move(ops)));
        proc->start(0);
        eq.run();
        EXPECT_TRUE(proc->finished());
        return proc->finishTick();
    }
};

TEST_F(ProcFixture, ComputeOnlyTakesExactCycles)
{
    Tick t = runOps({ThreadOp::compute(100), ThreadOp::compute(23)});
    EXPECT_EQ(t, 123u);
    EXPECT_EQ(proc->instructions(), 123u);
    EXPECT_EQ(proc->misses(), 0u);
    EXPECT_EQ(proc->stallTicks(), 0u);
}

TEST_F(ProcFixture, HitsAccumulateLatency)
{
    // First access misses; the next 10 hit in L1 at 1 cycle.
    std::vector<ThreadOp> ops;
    for (int i = 0; i < 11; ++i)
        ops.push_back(ThreadOp::load(0x1000));
    Tick t = runOps(ops);
    EXPECT_EQ(proc->misses(), 1u);
    EXPECT_EQ(proc->memRefs(), 11u);
    EXPECT_GT(proc->stallTicks(), 0u);
    // finish = stall (includes detect+bus+fill) + 10 L1 hits.
    EXPECT_EQ(t, proc->stallTicks() + 10u);
}

TEST_F(ProcFixture, StoreThenLoadSameLineHits)
{
    Tick t = runOps({ThreadOp::store(0x2000),
                     ThreadOp::load(0x2040)});
    (void)t;
    EXPECT_EQ(proc->misses(), 1u);
}

TEST_F(ProcFixture, SelfBarrierPassesThrough)
{
    Tick t = runOps({ThreadOp::compute(10), ThreadOp::barrier(0),
                     ThreadOp::compute(10)});
    EXPECT_GE(t, 20u);
    EXPECT_EQ(sync.statBarriers.value(), 1.0);
}

TEST_F(ProcFixture, LockUnlockSequence)
{
    Tick t = runOps({ThreadOp::lock(3), ThreadOp::compute(5),
                     ThreadOp::unlock(3)});
    EXPECT_GT(t, 5u);
    // Lock/unlock each touch the lock line (first one misses).
    EXPECT_GE(proc->misses(), 1u);
}

} // namespace
} // namespace ccnuma
