/**
 * @file
 * The coherence controller's guard stage, one outcome per test, on a
 * lone controller wired to its node's bus and memory and to a router
 * that captures every message it sends: a rebuilding home nacks
 * requests and parks writebacks, a poisoned line bounces remote
 * requests and fences local ones, a response whose transaction died
 * in a crash is dropped, and a rebuild probes every peer in one wave.
 * Also pins the message-traits rows the guard, the queues and the
 * crash sweep read.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "cc/coherence_controller.hh"

namespace ccnuma
{
namespace
{

/** Records every message the controller puts on the network. */
class CaptureRouter : public MsgRouter
{
  public:
    void deliverMsg(const Msg &msg) override { sent.push_back(msg); }

    std::size_t
    count(MsgType t) const
    {
        std::size_t n = 0;
        for (const Msg &m : sent)
            n += m.type == t;
        return n;
    }

    std::vector<Msg> sent;
};

/** A processor-side bus agent that records completed requests. */
class Requester : public BusAgent
{
  public:
    SnoopResult busSnoop(BusTxn &) override { return SnoopResult::None; }
    void busDone(BusTxn &txn) override { done.push_back(txn.id); }

    std::vector<std::uint64_t> done;
};

/** Node 0's controller in a @p nodes-node machine, and nothing else. */
struct Harness
{
    /** Pages interleave across two nodes: page 2 is homed at 0. */
    static constexpr Addr kHomeLine = 0x2000;
    static constexpr Addr kRemoteLine = 0x1000;

    explicit Harness(bool recovery = true, unsigned nodes = 2)
        : net("net", eq, nodes, NetworkParams{}), map(nodes),
          cc("node0.cc", eq, 0, CcParams{},
             recovery ? FaultTolerance::Recovery : FaultTolerance::None,
             bus, net, map, dir)
    {
        bus.setMemory(&mem);
        cc.setMemory(&mem);
        cc.setRouter(&router);
        cpuId = bus.addAgent(&cpu);
    }

    /** Deliver one message from @p src and run to quiescence. */
    void
    deliver(MsgType type, Addr line, std::uint64_t version = 0,
            NodeId src = 1)
    {
        Msg m;
        m.type = type;
        m.lineAddr = line;
        m.src = src;
        m.dst = 0;
        m.requester = 1;
        m.version = version;
        cc.netReceive(m);
        eq.run();
    }

    /** Crash with directory loss and restart into a rebuild. */
    void
    startRebuild()
    {
        cc.crash(/*lose_directory=*/true);
        cc.restart();
        eq.run();
        ASSERT_EQ(cc.ccState(),
                  CoherenceController::CcState::Recovering);
        ASSERT_EQ(router.count(MsgType::DirProbe), 1u);
    }

    std::string
    state() const
    {
        std::ostringstream os;
        cc.dumpState(os);
        return os.str();
    }

    EventQueue eq;
    Bus bus{"node0.bus", eq, BusParams{}, 128};
    MemoryController mem{"node0.mem", MemoryParams{}, 128};
    DirectoryStore dir{"node0.dir", DirectoryParams{}, 128};
    Network net;
    AddressMap map;
    CoherenceController cc;
    CaptureRouter router;
    Requester cpu;
    int cpuId = -1;
};

TEST(GuardStage, RebuildingHomeNacksRequests)
{
    Harness h;
    ASSERT_EQ(h.map.homeOf(Harness::kHomeLine), 0u);
    h.startRebuild();
    h.deliver(MsgType::ReadReq, Harness::kHomeLine);
    h.deliver(MsgType::ReadExclReq, Harness::kHomeLine);
    EXPECT_EQ(h.router.count(MsgType::RecoveryNack), 2u);
    EXPECT_EQ(h.cc.recoveryNacks(), 2u);
}

TEST(GuardStage, RebuildingHomeParksWriteBacks)
{
    Harness h;
    h.startRebuild();
    h.deliver(MsgType::WriteBack, Harness::kHomeLine, 7);
    h.deliver(MsgType::SharingWB, Harness::kHomeLine, 8);
    // Held, not acked: the directory cannot judge them yet.
    EXPECT_EQ(h.router.count(MsgType::WriteBackAck), 0u);
    EXPECT_NE(h.state().find("parkedWb=2"), std::string::npos)
        << h.state();
    EXPECT_FALSE(h.cc.lineQuiet(Harness::kHomeLine));

    // The only peer reports no copies: the rebuild completes and the
    // parked writebacks replay and are acked.
    h.deliver(MsgType::DirProbeDone, 0, /*responses=*/0);
    EXPECT_EQ(h.cc.ccState(), CoherenceController::CcState::Normal);
    EXPECT_EQ(h.cc.dirRebuilds(), 1u);
    EXPECT_EQ(h.router.count(MsgType::WriteBackAck), 2u);
    EXPECT_TRUE(h.cc.idle());
}

TEST(GuardStage, RebuildProbesEveryPeerInOneWave)
{
    // A home that lost its directory probes all of its peers at once,
    // in ascending order, and leaves the rebuild only when every
    // peer's DirProbeDone is in. No second wave follows.
    Harness h(/*recovery=*/true, /*nodes=*/4);
    h.cc.crash(/*lose_directory=*/true);
    h.cc.restart();
    h.eq.run();
    std::vector<NodeId> probed;
    for (const Msg &m : h.router.sent) {
        EXPECT_EQ(m.type, MsgType::DirProbe);
        probed.push_back(m.dst);
    }
    EXPECT_EQ(probed, (std::vector<NodeId>{1, 2, 3}));
    for (NodeId peer : {3u, 1u, 2u}) {
        ASSERT_EQ(h.cc.ccState(),
                  CoherenceController::CcState::Recovering);
        h.deliver(MsgType::DirProbeDone, 0, /*responses=*/0, peer);
    }
    EXPECT_EQ(h.cc.ccState(), CoherenceController::CcState::Normal);
    EXPECT_EQ(h.cc.dirRebuilds(), 1u);
    EXPECT_EQ(h.router.count(MsgType::DirProbe), 3u);
}

TEST(GuardStage, PoisonedLineNacksRemoteRequest)
{
    Harness h;
    h.cc.markLineDead(Harness::kHomeLine);
    h.deliver(MsgType::ReadReq, Harness::kHomeLine);
    ASSERT_EQ(h.router.sent.size(), 1u);
    EXPECT_EQ(h.router.sent[0].type, MsgType::PoisonNack);
    EXPECT_EQ(h.router.sent[0].dst, 1u);
    EXPECT_EQ(h.cc.poisonNacks(), 1u);
}

TEST(GuardStage, PoisonedLineFencesLocalBusRequest)
{
    Harness h;
    std::vector<Addr> fenced;
    h.cc.setPoisonFence([&](Addr line) { fenced.push_back(line); });
    h.cc.markLineDead(Harness::kHomeLine);
    std::uint64_t txn =
        h.bus.request(BusCmd::Read, Harness::kHomeLine, h.cpuId);
    h.eq.run();
    EXPECT_EQ(fenced, std::vector<Addr>{Harness::kHomeLine});
    EXPECT_EQ(h.cpu.done, std::vector<std::uint64_t>{txn});
    EXPECT_EQ(h.cc.poisonNacks(), 1u);
    EXPECT_TRUE(h.router.sent.empty());
}

TEST(GuardStage, PoisonNackFencesRequester)
{
    // The requester's side of a poisoned line: the pending request
    // is torn down and its bus transaction drains through the fence.
    Harness h;
    std::vector<Addr> fenced;
    h.cc.setPoisonFence([&](Addr line) { fenced.push_back(line); });
    std::uint64_t txn =
        h.bus.request(BusCmd::Read, Harness::kRemoteLine, h.cpuId);
    h.eq.run();
    ASSERT_EQ(h.router.count(MsgType::ReadReq), 1u);
    EXPECT_FALSE(h.cc.idle());
    h.deliver(MsgType::PoisonNack, Harness::kRemoteLine);
    EXPECT_EQ(fenced, std::vector<Addr>{Harness::kRemoteLine});
    EXPECT_EQ(h.cpu.done, std::vector<std::uint64_t>{txn});
    EXPECT_TRUE(h.cc.idle());
}

TEST(GuardStage, StrayResponsesDropped)
{
    // Responses for a home transaction and for a requester
    // transaction that this controller does not hold (a crash took
    // them) are counted and dropped.
    Harness h;
    h.deliver(MsgType::InvalAck, Harness::kHomeLine);
    h.deliver(MsgType::OwnershipAck, Harness::kHomeLine);
    h.deliver(MsgType::DataReply, Harness::kRemoteLine, 5);
    h.deliver(MsgType::HomeNack, Harness::kRemoteLine);
    EXPECT_EQ(h.cc.strayDrops(), 4u);
    EXPECT_TRUE(h.router.sent.empty());
    EXPECT_TRUE(h.cc.idle());
}

TEST(GuardStage, StrayResponseWithoutRecoveryPanics)
{
    Harness h(/*recovery=*/false);
    EXPECT_THROW(h.deliver(MsgType::InvalAck, Harness::kHomeLine),
                 PanicError);
}

/** The message types whose traits row has @p pred true. */
template <typename Pred>
std::vector<MsgType>
typesWhere(Pred pred)
{
    std::vector<MsgType> out;
    for (unsigned t = 0; t <= static_cast<unsigned>(MsgType::PoisonNack);
         ++t) {
        if (pred(msgTraits(static_cast<MsgType>(t))))
            out.push_back(static_cast<MsgType>(t));
    }
    return out;
}

TEST(MsgTraitsTable, QueuesCrashAndRebuildDispositions)
{
    using T = MsgType;
    EXPECT_EQ(typesWhere([](const MsgTraits &r) {
                  return r.queue == MsgQueue::Request;
              }),
              (std::vector<T>{T::ReadReq, T::ReadExclReq, T::FwdRead,
                              T::FwdReadExcl, T::InvalReq, T::WriteBack,
                              T::DirProbe}));
    EXPECT_EQ(typesWhere([](const MsgTraits &r) {
                  return r.queue == MsgQueue::Interface;
              }),
              (std::vector<T>{T::WriteBackAck, T::RecoveryProbe,
                              T::RecoveryProbeAck}));
    EXPECT_EQ(typesWhere([](const MsgTraits &r) {
                  return r.crash == OnCrash::Park;
              }),
              (std::vector<T>{T::FwdRead, T::FwdReadExcl, T::InvalReq,
                              T::SharingWB, T::WriteBack}));
    EXPECT_EQ(typesWhere([](const MsgTraits &r) {
                  return r.rebuild == OnRebuild::Nack;
              }),
              (std::vector<T>{T::ReadReq, T::ReadExclReq}));
    EXPECT_EQ(typesWhere([](const MsgTraits &r) {
                  return r.rebuild == OnRebuild::Park;
              }),
              (std::vector<T>{T::SharingWB, T::WriteBack}));
    EXPECT_EQ(typesWhere([](const MsgTraits &r) {
                  return r.needs == MsgNeeds::HomeTxn;
              }),
              (std::vector<T>{T::InvalAck, T::OwnerDataToHome,
                              T::OwnerDataExclToHome, T::OwnershipAck,
                              T::OwnerNack}));
    EXPECT_EQ(typesWhere([](const MsgTraits &r) {
                  return r.needs == MsgNeeds::ReqTxn;
              }),
              (std::vector<T>{T::DataReply, T::DataExclReply,
                              T::HomeNack, T::RecoveryNack,
                              T::PoisonNack}));
}

} // namespace
} // namespace ccnuma
