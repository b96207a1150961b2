#include <gtest/gtest.h>

#include "mem/address_map.hh"
#include "node/cache_unit.hh"

namespace ccnuma
{
namespace
{

/** Single-node hook: memory supplies unless a cache intervenes. */
struct LocalHook : BusCoherenceHook
{
    SupplyDecision
    busObserve(BusTxn &txn, SnoopResult combined) override
    {
        if (txn.cmd == BusCmd::WriteBack)
            return SupplyDecision::Memory;
        if (txn.cmd == BusCmd::Inval)
            return SupplyDecision::NoData;
        if (combined == SnoopResult::DirtySupply) {
            return txn.cmd == BusCmd::Read
                       ? SupplyDecision::CacheReflect
                       : SupplyDecision::Cache;
        }
        txn.exclusiveOk = true; // single node: no remote copies
        return SupplyDecision::Memory;
    }
};

struct CacheUnitFixture : ::testing::Test
{
    EventQueue eq;
    AddressMap map{1, 4096};
    BusParams busParams;
    MemoryParams memParams;
    std::unique_ptr<Bus> bus;
    std::unique_ptr<MemoryController> mem;
    LocalHook hook;
    std::uint64_t versions = 0;
    std::unique_ptr<CacheUnit> c0, c1;

    void
    SetUp() override
    {
        bus = std::make_unique<Bus>("bus", eq, busParams, 128);
        mem = std::make_unique<MemoryController>("mem", memParams, 128);
        bus->setMemory(mem.get());
        bus->setCoherenceHook(&hook);
        CacheUnitParams p;
        p.l1Bytes = 2048;
        p.l2Bytes = 16 * 1024;
        auto nv = [this] { return ++versions; };
        c0 = std::make_unique<CacheUnit>("c0", eq, *bus, map, 0, p,
                                         nv);
        c1 = std::make_unique<CacheUnit>("c1", eq, *bus, map, 0, p,
                                         nv);
    }

    /** Complete a miss synchronously and return the fill state. */
    void
    fill(CacheUnit &c, Addr a, bool write)
    {
        bool done = false;
        c.startMiss(a, write, [&](Tick, std::uint64_t) {
            done = true;
        });
        eq.run();
        ASSERT_TRUE(done);
    }
};

TEST_F(CacheUnitFixture, MissThenHits)
{
    auto r = c0->access(0x1000, false);
    EXPECT_FALSE(r.hit);
    fill(*c0, 0x1000, false);
    r = c0->access(0x1000, false);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 1u); // L1 hit
}

TEST_F(CacheUnitFixture, LocalReadFillsExclusive)
{
    fill(*c0, 0x1000, false);
    const CacheLine *l = c0->l2().findLine(0x1000);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state, LineState::Exclusive);
}

TEST_F(CacheUnitFixture, SharedWhenAnotherCacheHolds)
{
    fill(*c0, 0x1000, false);
    fill(*c1, 0x1000, false);
    EXPECT_EQ(c1->l2().findLine(0x1000)->state, LineState::Shared);
    // c0's Exclusive copy was downgraded by the snoop.
    EXPECT_EQ(c0->l2().findLine(0x1000)->state, LineState::Shared);
}

TEST_F(CacheUnitFixture, StoreToExclusiveSilentUpgrade)
{
    fill(*c0, 0x1000, false);
    auto r = c0->access(0x1000, true);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(c0->l2().findLine(0x1000)->state,
              LineState::Modified);
    EXPECT_GT(c0->l2().findLine(0x1000)->version, 0u);
}

TEST_F(CacheUnitFixture, StoreToSharedNeedsBus)
{
    fill(*c0, 0x1000, false);
    fill(*c1, 0x1000, false); // both Shared now
    auto r = c0->access(0x1000, true);
    EXPECT_FALSE(r.hit);
    fill(*c0, 0x1000, true);
    EXPECT_EQ(c0->l2().findLine(0x1000)->state,
              LineState::Modified);
    // The bus ReadExcl snoop invalidated c1's copy.
    EXPECT_EQ(c1->l2().findLine(0x1000), nullptr);
    EXPECT_EQ(c0->statUpgradeMisses.value(), 1.0);
}

TEST_F(CacheUnitFixture, DirtyCacheToCacheTransfer)
{
    fill(*c0, 0x1000, false);
    c0->access(0x1000, true); // E -> M
    std::uint64_t v = c0->l2().findLine(0x1000)->version;
    fill(*c1, 0x1000, false);
    // Supplier downgraded, reader Shared, versions agree.
    EXPECT_EQ(c0->l2().findLine(0x1000)->state, LineState::Shared);
    EXPECT_EQ(c1->l2().findLine(0x1000)->state, LineState::Shared);
    EXPECT_EQ(c1->l2().findLine(0x1000)->version, v);
    // Reflection updated memory.
    EXPECT_EQ(mem->version(c0->l2().lineAlign(0x1000)), v);
}

TEST_F(CacheUnitFixture, DirtyEvictionWritesBack)
{
    // Fill enough same-set lines to evict a dirty one. L2 is
    // 16 KB 4-way with 128 B lines -> 32 sets; stride 32*128.
    const Addr stride = 32 * 128;
    fill(*c0, 0, false);
    c0->access(0, true); // dirty it
    std::uint64_t v = c0->l2().findLine(0)->version;
    for (Addr i = 1; i <= 4; ++i)
        fill(*c0, i * stride, false);
    eq.run();
    EXPECT_EQ(c0->l2().findLine(0), nullptr);
    EXPECT_EQ(mem->version(0), v);
    EXPECT_EQ(c0->statWriteBacks.value(), 1.0);
}

TEST_F(CacheUnitFixture, WritebackBufferSuppliesRacingRead)
{
    const Addr stride = 32 * 128;
    fill(*c0, 0, false);
    c0->access(0, true);
    std::uint64_t v = c0->l2().findLine(0)->version;
    for (Addr i = 1; i <= 4; ++i)
        fill(*c0, i * stride, false);
    // Immediately read the evicted line from the other cache; if
    // the writeback is still in flight the buffer must supply it.
    fill(*c1, 0, false);
    EXPECT_EQ(c1->l2().findLine(0)->version, v);
}

/** Trivial agent for issuing controller-style transactions. */
struct InvalIssuer : BusAgent
{
    SnoopResult busSnoop(BusTxn &) override
    {
        return SnoopResult::None;
    }
    void busDone(BusTxn &) override {}
};

TEST_F(CacheUnitFixture, InvalSnoopDropsLineAndL1)
{
    InvalIssuer issuer;
    int id = bus->addAgent(&issuer);
    fill(*c0, 0x1000, false);
    EXPECT_TRUE(c0->hasLine(0x1000));
    bus->request(BusCmd::Inval, c0->l2().lineAlign(0x1000), id, 0,
                 true);
    eq.run();
    EXPECT_FALSE(c0->hasLine(0x1000));
    auto r = c0->access(0x1000, false);
    EXPECT_FALSE(r.hit);
}

TEST_F(CacheUnitFixture, L1SubsetTracksL2)
{
    fill(*c0, 0x1000, false);
    EXPECT_EQ(c0->access(0x1000, false).latency, 1u);
    // Invalidate via snoop; both levels must miss afterwards.
    c1->startMiss(0x1000, true, [](Tick, std::uint64_t) {});
    eq.run();
    EXPECT_FALSE(c0->access(0x1000, false).hit);
}

} // namespace
} // namespace ccnuma
