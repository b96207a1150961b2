#include <gtest/gtest.h>

#include <vector>

#include "bus/bus.hh"
#include "sim/event_queue.hh"

namespace ccnuma
{
namespace
{

/** Scriptable snooping agent. */
struct MockAgent : BusAgent
{
    SnoopResult snoopReply = SnoopResult::None;
    std::uint64_t supplyVersion = 0;
    std::vector<BusTxn> snooped;
    std::vector<BusTxn> done;

    SnoopResult
    busSnoop(BusTxn &txn) override
    {
        snooped.push_back(txn);
        if (snoopReply == SnoopResult::DirtySupply ||
            snoopReply == SnoopResult::SharedSupply) {
            txn.dataVersion = supplyVersion;
        }
        return snoopReply;
    }

    void busDone(BusTxn &txn) override { done.push_back(txn); }
};

/** Scriptable coherence hook. */
struct MockHook : BusCoherenceHook
{
    SupplyDecision decision = SupplyDecision::Memory;
    bool followCacheSnoop = true;
    std::vector<BusTxn> observed;
    std::vector<std::pair<BusTxn, Tick>> captured;

    SupplyDecision
    busObserve(BusTxn &txn, SnoopResult combined) override
    {
        observed.push_back(txn);
        if (followCacheSnoop &&
            combined == SnoopResult::DirtySupply &&
            txn.cmd != BusCmd::WriteBack) {
            return SupplyDecision::Cache;
        }
        return decision;
    }

    void
    busCaptureWriteBack(BusTxn &txn, Tick t) override
    {
        captured.emplace_back(txn, t);
    }
};

struct BusFixture : ::testing::Test
{
    EventQueue eq;
    BusParams params;
    MemoryParams memParams;
    std::unique_ptr<Bus> bus;
    std::unique_ptr<MemoryController> mem;
    MockHook hook;
    MockAgent a0, a1, a2;

    void
    SetUp() override
    {
        bus = std::make_unique<Bus>("bus", eq, params, 128);
        mem = std::make_unique<MemoryController>("mem", memParams, 128);
        bus->setMemory(mem.get());
        bus->setCoherenceHook(&hook);
        bus->addAgent(&a0);
        bus->addAgent(&a1);
        bus->addAgent(&a2);
    }
};

TEST_F(BusFixture, MemorySuppliesRead)
{
    mem->setVersion(0x1000, 5);
    bus->request(BusCmd::Read, 0x1000, 0);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    const BusTxn &txn = a0.done[0];
    EXPECT_EQ(txn.supply, SupplyDecision::Memory);
    EXPECT_EQ(txn.dataVersion, 5u);
    // arb (4) + memory access (20) + first beat (2).
    EXPECT_EQ(txn.dataTick, 4u + 20u + 2u);
    // Requester is never snooped.
    EXPECT_TRUE(a0.snooped.empty());
    EXPECT_EQ(a1.snooped.size(), 1u);
    EXPECT_EQ(a2.snooped.size(), 1u);
}

TEST_F(BusFixture, CacheToCacheBeatsMemoryLatency)
{
    a1.snoopReply = SnoopResult::DirtySupply;
    a1.supplyVersion = 9;
    bus->request(BusCmd::Read, 0x2000, 0);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    EXPECT_EQ(a0.done[0].supply, SupplyDecision::Cache);
    EXPECT_EQ(a0.done[0].dataVersion, 9u);
    EXPECT_EQ(a0.done[0].dataTick, 4u + 16u + 2u);
    EXPECT_TRUE(a0.done[0].sharedSeen);
}

TEST_F(BusFixture, AddressPipelineSpacing)
{
    bus->request(BusCmd::Read, 0x1000, 0);
    bus->request(BusCmd::Read, 0x2000, 1);
    bus->request(BusCmd::Read, 0x3000, 2);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    ASSERT_EQ(a1.done.size(), 1u);
    ASSERT_EQ(a2.done.size(), 1u);
    // One address strobe per 4 ticks (2 bus cycles).
    EXPECT_EQ(a0.done[0].strobeTick, 4u);
    EXPECT_EQ(a1.done[0].strobeTick, 8u);
    EXPECT_EQ(a2.done[0].strobeTick, 12u);
}

TEST_F(BusFixture, DataBusSerializesTransfers)
{
    // Two memory reads of different banks: data ready at the same
    // time, but the data bus moves one line at a time (8 beats of
    // 2 ticks each).
    bus->request(BusCmd::Read, 0x1000, 0);
    bus->request(BusCmd::Read, 0x1080, 1); // adjacent line
    eq.run();
    Tick d0 = a0.done[0].dataTick;
    Tick d1 = a1.done[0].dataTick;
    EXPECT_GE(d1, d0 - 2 + 8 * 2);
}

TEST_F(BusFixture, DeferredRespondCompletesLater)
{
    hook.decision = SupplyDecision::Deferred;
    std::uint64_t id = bus->request(BusCmd::Read, 0x1000, 0);
    eq.run();
    EXPECT_TRUE(a0.done.empty());
    EXPECT_EQ(bus->numOutstanding(), 1u);
    bus->deferredRespond(id, 77, eq.curTick() + 100);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    EXPECT_EQ(a0.done[0].dataVersion, 77u);
    EXPECT_EQ(bus->numOutstanding(), 0u);
}

TEST_F(BusFixture, InvalCompletesWithoutData)
{
    hook.decision = SupplyDecision::NoData;
    bus->request(BusCmd::Inval, 0x1000, 0);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    // Strobe (4) + snoop latency (4), no data phase.
    EXPECT_EQ(eq.curTick(), 8u);
    EXPECT_EQ(a1.snooped.size(), 1u);
}

TEST_F(BusFixture, WriteBackToMemory)
{
    hook.decision = SupplyDecision::Memory;
    bus->request(BusCmd::WriteBack, 0x1000, 0, /*version=*/33);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    EXPECT_EQ(mem->version(0x1000), 33u);
    EXPECT_EQ(mem->statWrites.value(), 1.0);
}

TEST_F(BusFixture, WriteBackCapturedByHook)
{
    hook.decision = SupplyDecision::NoData;
    bus->request(BusCmd::WriteBack, 0x1000, 0, /*version=*/44);
    eq.run();
    ASSERT_EQ(hook.captured.size(), 1u);
    EXPECT_EQ(hook.captured[0].first.dataVersion, 44u);
    EXPECT_EQ(mem->version(0x1000), 0u); // memory not written
}

TEST_F(BusFixture, FromCcReadMayFindNoData)
{
    hook.decision = SupplyDecision::NoData;
    bus->request(BusCmd::Read, 0x1000, 0, 0, /*from_cc=*/true);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    EXPECT_EQ(a0.done[0].supply, SupplyDecision::NoData);
}

TEST_F(BusFixture, OutstandingLimitThrottles)
{
    params.maxOutstanding = 2;
    bus = std::make_unique<Bus>("bus2", eq, params, 128);
    bus->setMemory(mem.get());
    bus->setCoherenceHook(&hook);
    bus->addAgent(&a0);
    hook.decision = SupplyDecision::Deferred;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(bus->request(BusCmd::Read, 0x1000 + 0x80 * i,
                                   0));
    eq.run();
    // Only two can be granted until a response retires one.
    EXPECT_EQ(hook.observed.size(), 2u);
    bus->deferredRespond(ids[0], 1, eq.curTick());
    eq.run();
    EXPECT_EQ(hook.observed.size(), 3u);
}

TEST_F(BusFixture, StatsAccumulate)
{
    bus->request(BusCmd::Read, 0x1000, 0);
    eq.run();
    EXPECT_EQ(bus->statTxns.value(), 1.0);
    EXPECT_GT(bus->statAddrBusy.value(), 0.0);
    EXPECT_GT(bus->statDataBusy.value(), 0.0);
}

} // namespace
} // namespace ccnuma
