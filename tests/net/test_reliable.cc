/**
 * @file
 * Unit tests for the reliable transport sublayer: sequence numbering,
 * cumulative acks, timeout-driven retransmission, duplicate
 * discarding, reorder healing, the bounded-retransmit escalation
 * path, and the stats the transport counts into. Faults are scripted
 * through a NetworkTap so each scenario is exact, not probabilistic.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hh"
#include "net/reliable.hh"
#include "sim/logging.hh"

namespace ccnuma
{
namespace
{

/** A NetworkTap whose behavior is a per-call lambda. */
struct ScriptedTap : NetworkTap
{
    /** Called per message; return false to drop. Null = passthrough. */
    std::function<bool(NodeId, NodeId, Tick &, Tick &)> fn;
    std::uint64_t calls = 0;

    bool
    onDelivery(NodeId src, NodeId dst, Tick &delivered,
               Tick &duplicate_at) override
    {
        ++calls;
        return fn ? fn(src, dst, delivered, duplicate_at) : true;
    }
};

struct ReliableFixture : ::testing::Test
{
    EventQueue eq;
    NetworkParams np;
    ScriptedTap tap;
    std::unique_ptr<Network> net;
    std::unique_ptr<ReliableTransport> xport;
    std::vector<std::pair<Msg, Tick>> delivered;

    void
    build(bool crc = false)
    {
        net = std::make_unique<Network>("net", eq, 4, np);
        net->setTap(&tap);
        xport = std::make_unique<ReliableTransport>(
            "xport", eq, *net, crc, [this](const Msg &m) {
                delivered.emplace_back(m, eq.curTick());
            });
    }

    static Msg
    mkMsg(NodeId src, NodeId dst, Addr line)
    {
        Msg m;
        m.type = MsgType::ReadReq;
        m.lineAddr = line;
        m.src = src;
        m.dst = dst;
        return m;
    }
};

TEST_F(ReliableFixture, PassthroughKeepsOrderAndTiming)
{
    build();
    for (Addr line = 0; line < 3; ++line)
        xport->send(mkMsg(0, 1, 0x1000 * (line + 1)),
                    msgHeaderBytes);
    eq.run();
    // Data frames keep the network's natural delivery timing: the
    // first 16-byte frame arrives at 2 + 14 + 2 = 18, in order.
    ASSERT_EQ(delivered.size(), 3u);
    EXPECT_EQ(delivered[0].second, 18u);
    for (Addr line = 0; line < 3; ++line)
        EXPECT_EQ(delivered[line].first.lineAddr, 0x1000 * (line + 1));
    // A healthy pair never times out or retransmits, and drains.
    EXPECT_EQ(xport->retransmits(), 0u);
    EXPECT_EQ(xport->timeouts(), 0u);
    EXPECT_EQ(xport->dataFrames(), 3u);
    EXPECT_GE(xport->acksSent(), 1u);
    EXPECT_TRUE(xport->idle());
}

TEST_F(ReliableFixture, DroppedFrameIsRetransmitted)
{
    // Drop the very first wire message (the data frame).
    tap.fn = [&](NodeId, NodeId, Tick &, Tick &) {
        return tap.calls != 1;
    };
    build();
    xport->send(mkMsg(0, 1, 0x2000), msgHeaderBytes);
    eq.run();
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].first.lineAddr, 0x2000u);
    // The copy that made it was a timeout-driven retransmission.
    EXPECT_GE(delivered[0].second, ReliableTransport::retransmitTimeout);
    EXPECT_GE(xport->retransmits(), 1u);
    EXPECT_GE(xport->timeouts(), 1u);
    EXPECT_TRUE(xport->idle());
}

TEST_F(ReliableFixture, DuplicateFrameIsDiscarded)
{
    // Deliver the first wire message twice, 40 ticks apart.
    tap.fn = [&](NodeId, NodeId, Tick &t, Tick &dup) {
        if (tap.calls == 1)
            dup = t + 40;
        return true;
    };
    build();
    xport->send(mkMsg(0, 1, 0x3000), msgHeaderBytes);
    eq.run();
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_GE(xport->dupsDropped(), 1u);
    EXPECT_EQ(xport->retransmits(), 0u);
    EXPECT_TRUE(xport->idle());
}

TEST_F(ReliableFixture, ReorderIsHealedInSequenceOrder)
{
    // Hold the first data frame back 200 ticks (well under the
    // 400-tick retransmission timeout) so the second overtakes it.
    tap.fn = [&](NodeId, NodeId, Tick &t, Tick &) {
        if (tap.calls == 1)
            t += 200;
        return true;
    };
    build();
    xport->send(mkMsg(0, 1, 0xA000), msgHeaderBytes);
    xport->send(mkMsg(0, 1, 0xB000), msgHeaderBytes);
    eq.run();
    // Both delivered, in send order despite the wire reordering; the
    // overtaking frame waited in the reorder buffer.
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_EQ(delivered[0].first.lineAddr, 0xA000u);
    EXPECT_EQ(delivered[1].first.lineAddr, 0xB000u);
    EXPECT_EQ(delivered[0].second, delivered[1].second);
    EXPECT_GE(xport->reordersHealed(), 1u);
    EXPECT_EQ(xport->retransmits(), 0u);
    EXPECT_TRUE(xport->idle());
}

TEST_F(ReliableFixture, LostAckRecoveredByRetransmitAndDedup)
{
    // Drop the first 1->0 wire message: that is the cumulative ack
    // for the data frame. The sender must retransmit, the receiver
    // must discard the duplicate and re-ack, and the pair drains.
    bool dropped_one = false;
    tap.fn = [&](NodeId src, NodeId dst, Tick &, Tick &) {
        if (!dropped_one && src == 1 && dst == 0) {
            dropped_one = true;
            return false;
        }
        return true;
    };
    build();
    xport->send(mkMsg(0, 1, 0x4000), msgHeaderBytes);
    eq.run();
    // Exactly one protocol delivery, at the natural time.
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].second, 18u);
    EXPECT_GE(xport->retransmits(), 1u);
    EXPECT_GE(xport->dupsDropped(), 1u);
    EXPECT_TRUE(xport->idle());
}

TEST_F(ReliableFixture, EscalatesAfterMaxRetransmits)
{
    // A pair whose data frames all vanish must not back off forever:
    // after maxRetransmits attempts the run ends with a FatalError
    // diagnostic naming the pair.
    tap.fn = [&](NodeId src, NodeId dst, Tick &, Tick &) {
        return !(src == 0 && dst == 1);
    };
    build();
    xport->send(mkMsg(0, 1, 0x5000), msgHeaderBytes);
    EXPECT_THROW(eq.run(), FatalError);
    EXPECT_EQ(delivered.size(), 0u);
    EXPECT_EQ(xport->retransmits(), ReliableTransport::maxRetransmits);
    EXPECT_FALSE(xport->idle());
}

TEST_F(ReliableFixture, RetransmitTimeoutBacksOffExponentially)
{
    // The timeouts fire after 400, 800, 1600, 3200 and 6400 ticks,
    // then every 12,800 at the cap. The 17th timeout finds the frame
    // past its 16 retransmissions and escalates at 12,400 + 12 *
    // 12,800 = 166,000 ticks, not 17 * 400 = 6,800 (what fixed
    // timeouts would give).
    static_assert(ReliableTransport::retransmitTimeout == 400 &&
                  ReliableTransport::retransmitTimeoutMax == 12'800 &&
                  ReliableTransport::maxRetransmits == 16);
    tap.fn = [&](NodeId src, NodeId dst, Tick &, Tick &) {
        return !(src == 0 && dst == 1);
    };
    build();
    xport->send(mkMsg(0, 1, 0x6000), msgHeaderBytes);
    EXPECT_THROW(eq.run(), FatalError);
    EXPECT_EQ(eq.curTick(), 166'000u);
    EXPECT_EQ(xport->timeouts(), 17u);
    EXPECT_EQ(xport->backoffTicks(), 166'000u);
}

TEST_F(ReliableFixture, PairsFailAndRecoverIndependently)
{
    // Losing every 0->1 data frame must not perturb traffic on other
    // pairs: 2->3 and 1->0 deliver at their natural times with their
    // own sequence spaces.
    tap.fn = [&](NodeId src, NodeId dst, Tick &, Tick &) {
        return !(src == 0 && dst == 1);
    };
    build();
    xport->send(mkMsg(0, 1, 0x7000), msgHeaderBytes);
    xport->send(mkMsg(2, 3, 0x8000), msgHeaderBytes);
    xport->send(mkMsg(1, 0, 0x9000), msgHeaderBytes);
    // Bounded run: by tick 20,000 the 0->1 pair has timed out five
    // times, far from its retransmission limit.
    eq.run(20'000);
    ASSERT_EQ(delivered.size(), 2u);
    // Both arrive at the natural tick 18; same-tick arrivals from
    // different sources order by source egress context, so 1->0
    // precedes 2->3.
    EXPECT_EQ(delivered[0].first.lineAddr, 0x9000u);
    EXPECT_EQ(delivered[0].second, 18u);
    EXPECT_EQ(delivered[1].first.lineAddr, 0x8000u);
    EXPECT_EQ(delivered[1].second, 18u);
    EXPECT_FALSE(xport->idle());
    EXPECT_GT(xport->retransmits(), 3u);
}

TEST_F(ReliableFixture, StatGroupMatchesAccessorsAfterScriptedFaults)
{
    // Drop the first data frame, duplicate the second and hold the
    // third back, on CRC frames: every counter moves. The transport
    // counts straight into its stat group, so the group printStats
    // reads equals the accessors without any fold step.
    tap.fn = [&](NodeId src, NodeId, Tick &t, Tick &dup) {
        if (src != 0)
            return true; // acks pass
        if (tap.calls == 1)
            return false;
        if (tap.calls == 2)
            dup = t + 40;
        if (tap.calls == 3)
            t += 200;
        return true;
    };
    build(/*crc=*/true);
    for (Addr line = 1; line <= 3; ++line)
        xport->send(mkMsg(0, 1, 0x1000 * line), msgHeaderBytes);
    eq.run();
    ASSERT_EQ(delivered.size(), 3u);
    EXPECT_TRUE(xport->idle());
    EXPECT_GE(xport->retransmits(), 1u);
    EXPECT_GE(xport->dupsDropped(), 1u);
    EXPECT_GE(xport->reordersHealed(), 1u);

    std::map<std::string, double> group;
    for (const stats::Stat *st : xport->statGroup().stats()) {
        const auto *sc = dynamic_cast<const stats::Scalar *>(st);
        ASSERT_NE(sc, nullptr) << st->name();
        group[st->name()] = sc->value();
    }
    const std::map<std::string, double> accessors = {
        {"data_frames", double(xport->dataFrames())},
        {"acks", double(xport->acksSent())},
        {"retransmits", double(xport->retransmits())},
        {"timeouts", double(xport->timeouts())},
        {"dups_dropped", double(xport->dupsDropped())},
        {"reorders_healed", double(xport->reordersHealed())},
        {"backoff_ticks", double(xport->backoffTicks())},
        {"crc_checked", double(xport->crcChecked())},
        {"crc_detected", double(xport->crcDetected())},
    };
    EXPECT_EQ(group, accessors);
    EXPECT_EQ(group.at("data_frames"), 3.0);
    EXPECT_GT(group.at("crc_checked"), 3.0);
}

} // namespace
} // namespace ccnuma
