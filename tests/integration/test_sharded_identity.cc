/**
 * @file
 * Sharded-scheduler identity pinning: running any workload with
 * CCNUMA_SHARDS > 1 must be *bit-identical* to the serial scheduler
 * with deferred sync grants (CCNUMA_SYNC_DEFER=1) — same retired
 * instructions, same execution ticks, and the same full statistics
 * dump — because cross-shard work (network arrivals, sync grants)
 * carries explicit deterministic event keys and is injected at
 * window barriers in the exact order the serial scheduler would have
 * processed it.
 *
 * Only the clean machine shards. Also pinned here: the hang
 * watchdog, crash recovery and integrity with no crash or flip
 * scheduled, the tracer, and a seeded fault campaign each take the
 * counted serial fallback and reproduce their shards = 1 twin bit
 * for bit; a seeded sweep of synthetic traffic mixes matches its
 * serial oracle; and every serial-fallback path is counted, never
 * silent.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "system/machine.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace
{

constexpr Arch kArchs[] = {Arch::HWC, Arch::PPC, Arch::TwoHWC,
                           Arch::TwoPPC};
constexpr unsigned kShardCounts[] = {1, 2, 4, 8};

/** Everything a run can observably produce. */
struct Snapshot
{
    std::uint64_t instructions = 0;
    Tick execTicks = 0;
    std::string stats;
    unsigned shardsUsed = 0;
    std::string fallback;
    RunResult result;
};

MachineConfig
shardableConfig(Arch arch, unsigned shards)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 8; // divisible by every tested shard count
    cfg.node.procsPerNode = 1;
    cfg.withArch(arch);
    cfg.shards = shards;
    return cfg;
}

Snapshot
runWorkload(const MachineConfig &cfg, Workload &w)
{
    Machine m(cfg);
    Snapshot s;
    s.result = m.run(w);
    s.instructions = s.result.instructions;
    s.execTicks = s.result.execTicks;
    s.shardsUsed = m.shardsUsed();
    s.fallback = m.shardFallbackReason();
    std::ostringstream os;
    m.printStats(os);
    s.stats = os.str();
    return s;
}

Snapshot
runPoint(const MachineConfig &cfg, const std::string &app,
         double scale = 0.03)
{
    WorkloadParams p;
    p.numThreads = cfg.totalProcs();
    p.scale = scale;
    auto w = makeWorkload(app, p);
    return runWorkload(cfg, *w);
}

class ShardedKernel : public ::testing::TestWithParam<std::string>
{
};

/**
 * The serial oracle for @p cfg: the same configuration on one shard
 * with deferred sync grants, so it produces the sharded grant timing
 * (serial runs default to the seed's zero-delay wakes).
 */
MachineConfig
deferredSerial(MachineConfig cfg)
{
    cfg.shards = 1;
    cfg.forceSyncDefer = true;
    return cfg;
}

/** Assert @p s reproduces @p serial bit for bit on @p shards. */
void
expectIdentical(const Snapshot &s, const Snapshot &serial,
                unsigned shards)
{
    EXPECT_EQ(s.shardsUsed, shards);
    EXPECT_TRUE(s.fallback.empty()) << s.fallback;
    EXPECT_EQ(s.instructions, serial.instructions);
    EXPECT_EQ(s.execTicks, serial.execTicks);
    EXPECT_EQ(s.stats, serial.stats);
    EXPECT_GT(s.result.windowsRun, 0u);
}

TEST_P(ShardedKernel, BitIdenticalAcrossShardCounts)
{
    // Adaptive windows must reproduce the serial run exactly, because
    // widening is only applied when cross-shard silence is provable.
    for (Arch arch : kArchs) {
        Snapshot serial =
            runPoint(deferredSerial(shardableConfig(arch, 1)),
                     GetParam());
        ASSERT_GT(serial.instructions, 0u);
        for (unsigned shards : kShardCounts) {
            if (shards == 1)
                continue;
            Snapshot s = runPoint(shardableConfig(arch, shards),
                                  GetParam());
            SCOPED_TRACE(GetParam() + " on " +
                         std::string(archName(arch)) + " with " +
                         std::to_string(shards) + " shards");
            expectIdentical(s, serial, shards);
        }
    }
}

/** Kernels and shard counts for the composition tests below. */
constexpr const char *kComposedKernels[] = {"FFT", "LU"};
constexpr unsigned kComposedShards[] = {2, 4, 8};

/**
 * Assert @p s requested @p shards, fell back to serial with a
 * reason, and reproduces its shards = 1 twin @p serial bit for bit.
 */
void
expectFallback(const Snapshot &s, const Snapshot &serial,
               unsigned shards)
{
    EXPECT_EQ(s.shardsUsed, 1u);
    EXPECT_FALSE(s.fallback.empty());
    EXPECT_EQ(s.result.shardsRequested, shards);
    EXPECT_EQ(s.result.shardsUsed, 1u);
    EXPECT_EQ(s.result.shardFallback, s.fallback);
    EXPECT_EQ(s.result.windowsRun, 0u);
    EXPECT_EQ(s.instructions, serial.instructions);
    EXPECT_EQ(s.execTicks, serial.execTicks);
    EXPECT_EQ(s.stats, serial.stats);
}

/** Extra assertions on one (sharded request, shards = 1) pair. */
using PairCheck =
    std::function<void(const Snapshot &s, const Snapshot &serial)>;

/**
 * Run @p cfg on one shard and on every kComposedShards count, for
 * FFT and LU: each sharded request must fall back and match the
 * shards = 1 run, and pass @p check if given.
 */
void
expectFallbackRuns(MachineConfig cfg, const PairCheck &check = nullptr)
{
    for (const char *app : kComposedKernels) {
        cfg.shards = 1;
        Snapshot serial = runPoint(cfg, app);
        ASSERT_GT(serial.instructions, 0u);
        ASSERT_TRUE(serial.result.completed);
        for (unsigned shards : kComposedShards) {
            SCOPED_TRACE(std::string(app) + " with " +
                         std::to_string(shards) + " shards");
            cfg.shards = shards;
            Snapshot s = runPoint(cfg, app);
            expectFallback(s, serial, shards);
            if (check)
                check(s, serial);
        }
    }
}

TEST(ShardedComposition, WatchdogFallsBackToSerial)
{
    // The hang watchdog schedules its checks on one queue, so an
    // armed watchdog takes the serial scheduler.
    MachineConfig cfg = shardableConfig(Arch::PPC, 1);
    cfg.verify.watchdog = true;
    expectFallbackRuns(cfg);
}

TEST(ShardedComposition, CrashRecoveryWithoutCrashFallsBackToSerial)
{
    // Crash recovery armed with no crash scheduled still takes the
    // serial scheduler: recovery implies the reliable transport.
    MachineConfig cfg =
        shardableConfig(Arch::PPC, 1).withCrashRecovery();
    expectFallbackRuns(cfg);
}

TEST(ShardedComposition, TracedRunsFallBackToSerial)
{
    // The tracer is one machine-wide recorder, so a traced run takes
    // the serial scheduler and must reproduce the traced shards = 1
    // run, stats dump (tracer group included) and all.
    MachineConfig cfg = shardableConfig(Arch::PPC, 1);
    cfg.obs.enabled = true;
    // Aggregates stay live; no trace or metrics files are written.
    cfg.obs.chromeTraceFile = "";
    cfg.obs.metricsFile = "";
    expectFallbackRuns(cfg, [](const Snapshot &s,
                               const Snapshot &serial) {
        EXPECT_EQ(s.result.memRefs, serial.result.memRefs);
        EXPECT_EQ(s.result.ccRequests, serial.result.ccRequests);
    });
}

TEST(ShardedComposition, IntegrityWithoutFlipsFallsBackToSerial)
{
    // CRC frames, ECC and the scrubber with no flip scheduled take
    // the serial scheduler and must reproduce the shards = 1 run.
    MachineConfig cfg = shardableConfig(Arch::PPC, 1).withIntegrity();
    expectFallbackRuns(cfg, [](const Snapshot &s,
                               const Snapshot &serial) {
        EXPECT_GT(serial.result.crcChecked, 0u);
        EXPECT_EQ(s.result.crcChecked, serial.result.crcChecked);
        EXPECT_EQ(s.result.scrubCorrections, 0u);
    });
}

TEST(ShardedFuzz, SeededUniformStormsStayIdentical)
{
    // A seeded sweep over synthetic traffic mixes (private compute to
    // write-heavy sharing, with and without barriers), architectures
    // and shard counts: every sharded run must reproduce its
    // deferred-serial oracle bit for bit.
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::uint64_t widened = 0;
    std::uint64_t held = 0;
    for (int i = 0; i < 8; ++i) {
        UniformWorkload::Knobs k;
        k.refsPerThread = 250 + next() % 750;
        k.sharedFraction = static_cast<double>(next() % 11) / 10.0;
        k.writeFraction = static_cast<double>(next() % 11) / 10.0;
        k.computeGap = static_cast<unsigned>(next() % 16);
        k.barrierEvery = next() % 2 ? 100 + next() % 400 : 0;
        const Arch arch = kArchs[next() % std::size(kArchs)];
        const unsigned shards =
            kComposedShards[next() % std::size(kComposedShards)];
        MachineConfig cfg = shardableConfig(arch, shards);
        WorkloadParams p;
        p.numThreads = cfg.totalProcs();
        p.seed = next();
        SCOPED_TRACE("case " + std::to_string(i) + ": " +
                     std::string(archName(arch)) + " with " +
                     std::to_string(shards) + " shards, shared " +
                     std::to_string(k.sharedFraction) + ", writes " +
                     std::to_string(k.writeFraction) + ", barrier " +
                     std::to_string(k.barrierEvery));
        UniformWorkload oracle_w(p, k);
        Snapshot serial = runWorkload(deferredSerial(cfg), oracle_w);
        ASSERT_TRUE(serial.result.completed);
        UniformWorkload w(p, k);
        Snapshot s = runWorkload(cfg, w);
        expectIdentical(s, serial, shards);
        widened += s.result.windowsWidened;
        held += s.result.windowFallbacks;
    }
    // Both planner outcomes must occur, or the sweep proves nothing
    // about the windows it was meant to stress.
    EXPECT_GT(widened, 0u);
    EXPECT_GT(held, 0u);
}

TEST(AdaptiveWindows, WideningAndFallbacksAreCounted)
{
    // The planner's decisions must be observable: a sharded run
    // reports every window it executed, every window it widened past
    // the lock-step end, and every fallback to that floor — so a
    // planner that silently degrades to always-lock-step is
    // distinguishable from one that works.
    Snapshot a = runPoint(shardableConfig(Arch::PPC, 4), "FFT", 0.05);
    EXPECT_EQ(a.shardsUsed, 4u);
    EXPECT_GT(a.result.windowsRun, 0u);
    // Kernels have quiet phases; a planner that never widens on this
    // point is broken (this is the claim the perf win rests on).
    EXPECT_GT(a.result.windowsWidened, 0u);
    EXPECT_LE(a.result.windowsWidened, a.result.windowsRun);

    // The serial scheduler reports no window activity at all.
    Snapshot s = runPoint(shardableConfig(Arch::PPC, 1), "FFT", 0.05);
    EXPECT_EQ(s.result.windowsRun, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, ShardedKernel,
    ::testing::Values("LU", "Cholesky", "Water-Nsq", "Water-Sp",
                      "Barnes", "FFT", "Radix", "Ocean"),
    [](const auto &info) {
        std::string n = info.param;
        for (auto &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

TEST(ShardedFaults, SeededCampaignFallsBackToSerial)
{
    // Corrupting faults healed by the reliable transport, no checker:
    // armed faults take the serial scheduler, so the injected fault
    // sequence and the recovery accounting equal the shards = 1 run.
    auto cfg_for = [](unsigned shards) {
        MachineConfig cfg =
            shardableConfig(Arch::PPC, shards).withReliableTransport();
        cfg.verify.faults.seed = 11;
        cfg.verify.faults.dropEveryN = 97;
        cfg.verify.faults.duplicateProb = 0.02;
        cfg.verify.faults.reorderProb = 0.02;
        cfg.verify.faults.reorderDelayMax = 300;
        return cfg;
    };
    Snapshot serial = runPoint(cfg_for(1), "FFT", 0.05);
    ASSERT_TRUE(serial.result.completed);
    ASSERT_GT(serial.result.faultsInjected, 0u);
    for (unsigned shards : {2u, 4u, 8u}) {
        SCOPED_TRACE(std::to_string(shards) + " shards");
        Snapshot s = runPoint(cfg_for(shards), "FFT", 0.05);
        expectFallback(s, serial, shards);
        EXPECT_EQ(s.result.faultsInjected,
                  serial.result.faultsInjected);
        EXPECT_EQ(s.result.xportRetransmits,
                  serial.result.xportRetransmits);
        EXPECT_EQ(s.result.xportTimeouts, serial.result.xportTimeouts);
        EXPECT_EQ(s.result.xportDupsDropped,
                  serial.result.xportDupsDropped);
        EXPECT_EQ(s.result.xportReordersHealed,
                  serial.result.xportReordersHealed);
        EXPECT_EQ(s.result.nackRetries, serial.result.nackRetries);
        EXPECT_EQ(s.result.retryBackoffTicks,
                  serial.result.retryBackoffTicks);
    }
}

TEST(ShardedFallback, ZeroLookaheadFallsBackToSerialWithDiagnostic)
{
    // A zero sync hand-off empties the lookahead window: the
    // machine must fall back to the serial scheduler and say so in
    // the RunResult — never silently.
    MachineConfig cfg = shardableConfig(Arch::PPC, 4);
    cfg.syncHandoffTicks = 0;
    Snapshot s = runPoint(cfg, "LU");
    EXPECT_EQ(s.shardsUsed, 1u);
    EXPECT_FALSE(s.fallback.empty());
    EXPECT_EQ(s.result.shardsRequested, 4u);
    EXPECT_EQ(s.result.shardsUsed, 1u);
    EXPECT_FALSE(s.result.shardFallback.empty());
    EXPECT_GT(s.instructions, 0u);
}

TEST(ShardedFallback, CheckerForcesSerial)
{
    MachineConfig cfg = shardableConfig(Arch::PPC, 4);
    cfg.verify.checker = true;
    Snapshot s = runPoint(cfg, "LU");
    EXPECT_EQ(s.shardsUsed, 1u);
    EXPECT_FALSE(s.result.shardFallback.empty());
}

TEST(ShardedFallback, FirstTouchPlacementForcesSerial)
{
    MachineConfig cfg = shardableConfig(Arch::PPC, 2);
    cfg.placement = PlacementPolicy::FirstTouch;
    Snapshot s = runPoint(cfg, "LU");
    EXPECT_EQ(s.shardsUsed, 1u);
    EXPECT_FALSE(s.result.shardFallback.empty());
}

TEST(ShardedFallback, IntegrityFlipsForceSerial)
{
    MachineConfig cfg = shardableConfig(Arch::PPC, 4).withIntegrity();
    FlipFault f;
    f.domain = FlipDomain::Message;
    f.node = 1;
    f.atTick = 4000;
    f.bits = 1;
    cfg.verify.faults.flips.push_back(f);
    Snapshot s = runPoint(cfg, "FFT");
    EXPECT_TRUE(s.result.completed);
    EXPECT_EQ(s.shardsUsed, 1u);
    EXPECT_EQ(s.result.shardsRequested, 4u);
    EXPECT_FALSE(s.result.shardFallback.empty());
    EXPECT_EQ(s.result.windowsRun, 0u);
    // The flip still lands and is caught: only the scheduler changed.
    EXPECT_GT(s.result.flipsInjected, 0u);
    EXPECT_GT(s.result.crcDetected, 0u);
    EXPECT_EQ(s.result.escapedCorruptions, 0);
}

TEST(ShardedConfig, UnevenShardCountIsRejected)
{
    MachineConfig cfg = shardableConfig(Arch::PPC, 3); // 8 % 3 != 0
    EXPECT_THROW(cfg.validate(), FatalError);
}

} // namespace
} // namespace ccnuma
