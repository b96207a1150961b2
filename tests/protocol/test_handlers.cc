#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "protocol/handlers.hh"
#include "protocol/messages.hh"
#include "protocol/occupancy.hh"
#include "protocol/retry.hh"

namespace ccnuma
{
namespace
{

TEST(Occupancy, HwcCostsMatchPaperAssumptions)
{
    OccupancyModel m(EngineType::HWC);
    // On-chip register accesses take one system cycle (2 ticks).
    EXPECT_EQ(m.cost(SubOp::DispatchHandler), 2u);
    EXPECT_EQ(m.cost(SubOp::ReadRegister), 2u);
    EXPECT_EQ(m.cost(SubOp::WriteRegister), 2u);
    // Conditions and bit ops are folded into other actions.
    EXPECT_EQ(m.cost(SubOp::Condition), 0u);
    EXPECT_EQ(m.cost(SubOp::BitFieldOp), 0u);
}

TEST(Occupancy, PpCostsMatchPaperAssumptions)
{
    OccupancyModel m(EngineType::PP);
    // Off-chip reads: 4 system cycles (8 ticks); +1 cycle for
    // associative search; writes 2 system cycles (4 ticks).
    EXPECT_EQ(m.cost(SubOp::ReadRegister), 8u);
    EXPECT_EQ(m.cost(SubOp::ReadAssocRegs), 10u);
    EXPECT_EQ(m.cost(SubOp::WriteRegister), 4u);
}

TEST(Handlers, AllSpecsDefined)
{
    const auto &specs = allHandlerSpecs();
    ASSERT_EQ(specs.size(), numHandlers);
    std::set<std::string> names;
    for (unsigned i = 0; i < numHandlers; ++i) {
        const HandlerSpec &s = specs[i];
        EXPECT_EQ(static_cast<unsigned>(s.id), i);
        ASSERT_NE(s.name, nullptr);
        EXPECT_FALSE(s.pre.empty()) << s.name;
        names.insert(s.name);
    }
    // All names distinct.
    EXPECT_EQ(names.size(), numHandlers);
}

TEST(Handlers, EveryHandlerDispatchesFirst)
{
    for (const auto &s : allHandlerSpecs()) {
        ASSERT_FALSE(s.pre.empty());
        EXPECT_EQ(s.pre.front().first, SubOp::DispatchHandler)
            << s.name;
    }
}

TEST(Handlers, PpcOccupancyAlwaysHigher)
{
    OccupancyModel hwc(EngineType::HWC), pp(EngineType::PP);
    for (const auto &s : allHandlerSpecs()) {
        EXPECT_GT(s.nominalOccupancy(pp, 0),
                  s.nominalOccupancy(hwc, 0))
            << s.name;
    }
}

TEST(Handlers, FixedCostRatioNearPaperTarget)
{
    // Section 3.3: the PPC/HWC total occupancy ratio is roughly 2.5.
    // With a ~30-tick bus/memory component on fetching handlers the
    // per-handler ratios should bracket that figure.
    OccupancyModel hwc(EngineType::HWC), pp(EngineType::PP);
    constexpr Tick fetch_estimate = 30;
    double sum = 0;
    for (unsigned i = 0; i < numTable4Handlers; ++i) {
        const HandlerSpec &s =
            allHandlerSpecs()[i];
        Tick est = s.busOp != CcBusOp::None ? fetch_estimate : 0;
        sum += static_cast<double>(s.nominalOccupancy(pp, est)) /
               static_cast<double>(s.nominalOccupancy(hwc, est));
    }
    double mean = sum / numTable4Handlers;
    EXPECT_GT(mean, 1.8);
    EXPECT_LT(mean, 3.5);
}

TEST(Handlers, PerTargetCostsScale)
{
    const HandlerSpec &s =
        handlerSpec(HandlerId::RemoteReadExclToHomeShared);
    OccupancyModel pp(EngineType::PP);
    Tick base = s.preCost(pp, 1);
    Tick more = s.preCost(pp, 5);
    EXPECT_GT(more, base);
    EXPECT_EQ((more - base) % 4, 0u); // 4 extra targets
}

TEST(Handlers, DirectoryReadersAreHomeSideHandlers)
{
    // Only handlers for local (home) lines may touch the directory;
    // this is what makes the LPE/RPE split safe.
    auto reads_dir = [](HandlerId id) {
        return handlerSpec(id).readsDirectory;
    };
    EXPECT_TRUE(reads_dir(HandlerId::RemoteReadToHomeClean));
    EXPECT_TRUE(reads_dir(HandlerId::BusReadLocalDirtyRemote));
    EXPECT_TRUE(reads_dir(HandlerId::WriteBackAtHome));
    EXPECT_FALSE(reads_dir(HandlerId::BusReadRemote));
    EXPECT_FALSE(reads_dir(HandlerId::ReadFromOwnerForRemote));
    EXPECT_FALSE(reads_dir(HandlerId::DataReplyForRemoteRead));
    EXPECT_FALSE(reads_dir(HandlerId::InvalRequestAtSharer));
}

TEST(Messages, DataCarriersAndSizes)
{
    EXPECT_TRUE(msgCarriesData(MsgType::DataReply));
    EXPECT_TRUE(msgCarriesData(MsgType::WriteBack));
    EXPECT_FALSE(msgCarriesData(MsgType::InvalReq));
    EXPECT_FALSE(msgCarriesData(MsgType::OwnershipAck));
    EXPECT_EQ(msgBytes(MsgType::InvalReq, 128), 16u);
    EXPECT_EQ(msgBytes(MsgType::DataReply, 128), 144u);
    EXPECT_EQ(msgBytes(MsgType::DataReply, 32), 48u);
}

TEST(Messages, NamesExist)
{
    EXPECT_STREQ(msgTypeName(MsgType::ReadReq), "ReadReq");
    EXPECT_STREQ(msgTypeName(MsgType::WriteBackAck),
                 "WriteBackAck");
}

} // namespace
} // namespace ccnuma

namespace ccnuma
{
namespace
{

TEST(Occupancy, HybridAcceleratesCommonActions)
{
    OccupancyModel pp(EngineType::PP), hy(EngineType::PPAccel);
    // Accelerated: dispatch, associative match, bit fields.
    EXPECT_LT(hy.cost(SubOp::DispatchHandler),
              pp.cost(SubOp::DispatchHandler));
    EXPECT_LT(hy.cost(SubOp::ReadAssocRegs),
              pp.cost(SubOp::ReadAssocRegs));
    EXPECT_LT(hy.cost(SubOp::BitFieldOp),
              pp.cost(SubOp::BitFieldOp));
    // Still a commodity PP elsewhere.
    EXPECT_EQ(hy.cost(SubOp::ReadRegister),
              pp.cost(SubOp::ReadRegister));
    EXPECT_EQ(hy.cost(SubOp::WriteRegister),
              pp.cost(SubOp::WriteRegister));
}

TEST(Occupancy, HybridBetweenHwcAndPp)
{
    OccupancyModel hwc(EngineType::HWC), pp(EngineType::PP),
        hy(EngineType::PPAccel);
    for (const auto &s : allHandlerSpecs()) {
        Tick h = s.nominalOccupancy(hwc, 0);
        Tick y = s.nominalOccupancy(hy, 0);
        Tick p = s.nominalOccupancy(pp, 0);
        EXPECT_LE(h, y) << s.name;
        EXPECT_LE(y, p) << s.name;
    }
}

TEST(RetryPolicy, FollowsFaultToleranceLevel)
{
    // Below Transport a nacked request retries at once and without
    // bound, as in the paper; from Transport up it backs off 32, 64,
    // ... ticks up to 8192 and escalates on the 65th retry.
    RetryTracker paper(FaultTolerance::None);
    EXPECT_FALSE(paper.bounded());
    for (unsigned i = 1; i <= 1000; ++i) {
        RetryTracker::Attempt a = paper.next(0x80);
        ASSERT_EQ(a.delay, 0u);
        ASSERT_FALSE(a.exhausted);
        ASSERT_EQ(a.count, i);
    }
    for (FaultTolerance level :
         {FaultTolerance::Transport, FaultTolerance::Recovery,
          FaultTolerance::Integrity}) {
        SCOPED_TRACE(faultToleranceName(level));
        RetryTracker t(level);
        EXPECT_TRUE(t.bounded());
        Tick expect = 32;
        for (unsigned i = 1; i <= 64; ++i) {
            RetryTracker::Attempt a = t.next(0x80);
            ASSERT_EQ(a.delay, expect) << "retry " << i;
            ASSERT_FALSE(a.exhausted);
            expect = std::min<Tick>(2 * expect, 8192);
        }
        EXPECT_TRUE(t.next(0x80).exhausted);
        // Success forgets the streak; other keys never shared it.
        t.clear(0x80);
        EXPECT_EQ(t.next(0x80).delay, 32u);
        EXPECT_EQ(t.next(0x100).delay, 32u);
    }
}

} // namespace
} // namespace ccnuma
