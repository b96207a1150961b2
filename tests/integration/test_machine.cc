/**
 * @file
 * Machine-level behavioral tests: configuration presets, measurement
 * plumbing, and first-order performance sanity (PPC slower than HWC
 * under load; two engines help under load).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "system/machine.hh"
#include "workload/synthetic.hh"

namespace ccnuma
{
namespace
{

RunResult
runUniform(Arch arch, unsigned nodes, unsigned ppn,
           const UniformWorkload::Knobs &k, std::uint64_t seed = 7)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = nodes;
    cfg.node.procsPerNode = ppn;
    cfg.withArch(arch);
    Machine m(cfg);
    WorkloadParams p;
    p.numThreads = cfg.totalProcs();
    p.seed = seed;
    UniformWorkload w(p, k);
    return m.run(w, /*check=*/true);
}

UniformWorkload::Knobs
heavyKnobs()
{
    UniformWorkload::Knobs k;
    k.refsPerThread = 4000;
    k.sharedFraction = 0.9;
    k.writeFraction = 0.4;
    k.sharedBytes = 2 << 20;
    k.computeGap = 2;
    return k;
}

TEST(MachineConfigTest, PresetsApply)
{
    MachineConfig cfg = MachineConfig::base();
    EXPECT_EQ(cfg.numNodes, 16u);
    EXPECT_EQ(cfg.totalProcs(), 64u);

    cfg.withArch(Arch::TwoPPC);
    EXPECT_EQ(cfg.node.cc.engineType, EngineType::PP);
    EXPECT_EQ(cfg.node.cc.numEngines, 2u);

    cfg.withLineBytes(32);
    EXPECT_EQ(cfg.node.lineBytes, 32u);

    cfg.withProcsPerNode(8);
    EXPECT_EQ(cfg.numNodes, 8u);
    EXPECT_EQ(cfg.totalProcs(), 64u);

    cfg.withNetworkLatency(200);
    EXPECT_EQ(cfg.net.flightLatency, 200u);
}

TEST(MachineConfigTest, BadPpnRejected)
{
    MachineConfig cfg = MachineConfig::base();
    EXPECT_THROW(cfg.withProcsPerNode(7), FatalError);
}

TEST(MachineConfigTest, ValidateAcceptsPresets)
{
    EXPECT_NO_THROW(MachineConfig::base().validate());
    EXPECT_NO_THROW(MachineConfig::base()
                        .withArch(Arch::TwoPPC)
                        .withLineBytes(32)
                        .withReliableTransport()
                        .validate());
}

TEST(MachineConfigTest, ValidateRejectsNonsense)
{
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.numNodes = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.node.procsPerNode = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.withLineBytes(96); // not a power of two
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.pageBytes = 1000; // not a power of two
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.pageBytes = 64; // smaller than the 128-byte line
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.net.portWidthBytes = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.net.portCycle = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.maxTicks = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
}

TEST(MachineConfigTest, MachineConstructionValidates)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 1;
    cfg.net.portCycle = 0;
    EXPECT_THROW(Machine m(cfg), FatalError);
}

TEST(MachineConfigTest, BadMaxTicksEnvKeepsConfiguredLimit)
{
    // CCNUMA_MAX_TICKS takes a positive integer. Anything else is
    // warned about and leaves the configured limit in place, so a
    // typo can never become a tick limit of zero.
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 1;
    UniformWorkload::Knobs k;
    k.refsPerThread = 200;
    WorkloadParams p;
    p.numThreads = cfg.totalProcs();
    // Unset on every exit so a failure cannot leak into later tests.
    struct UnsetOnExit
    {
        ~UnsetOnExit() { unsetenv("CCNUMA_MAX_TICKS"); }
    } unset_on_exit;
    for (const char *bad :
         {"abc", "", "0", "-5", "12x", " 7", "99999999999999999999999"}) {
        SCOPED_TRACE(std::string("CCNUMA_MAX_TICKS=") + bad);
        ASSERT_EQ(setenv("CCNUMA_MAX_TICKS", bad, 1), 0);
        testing::internal::CaptureStderr();
        Machine m(cfg);
        std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("CCNUMA_MAX_TICKS"), std::string::npos)
            << err;
        EXPECT_EQ(m.config().maxTicks, cfg.maxTicks);
        UniformWorkload w(p, k);
        EXPECT_TRUE(m.run(w).completed);
    }
    ASSERT_EQ(setenv("CCNUMA_MAX_TICKS", "123456789", 1), 0);
    Machine good(cfg);
    EXPECT_EQ(good.config().maxTicks, 123456789u);
}

TEST(MachineConfigTest, MaxTicksEnvBoundsTheRun)
{
    // A valid CCNUMA_MAX_TICKS is the limit both schedulers run to: a
    // run that cannot finish inside it is reported as wedged.
    struct UnsetOnExit
    {
        ~UnsetOnExit() { unsetenv("CCNUMA_MAX_TICKS"); }
    } unset_on_exit;
    ASSERT_EQ(setenv("CCNUMA_MAX_TICKS", "50", 1), 0);
    UniformWorkload::Knobs k;
    k.refsPerThread = 200;
    for (unsigned shards : {1u, 2u}) {
        SCOPED_TRACE(std::to_string(shards) + " shard(s)");
        MachineConfig cfg = MachineConfig::base();
        cfg.numNodes = 2;
        cfg.node.procsPerNode = 1;
        cfg.shards = shards;
        Machine m(cfg);
        EXPECT_EQ(m.config().maxTicks, 50u);
        EXPECT_EQ(m.shardsUsed(), shards);
        WorkloadParams p;
        p.numThreads = cfg.totalProcs();
        UniformWorkload w(p, k);
        testing::internal::CaptureStderr();
        std::string what;
        try {
            m.run(w);
        } catch (const PanicError &e) {
            what = e.what();
        }
        testing::internal::GetCapturedStderr();
        EXPECT_NE(what.find("wedged"), std::string::npos) << what;
    }
}

TEST(MachineConfigTest, BadShardsEnvKeepsConfiguredShards)
{
    // CCNUMA_SHARDS shares the positive-integer check with
    // CCNUMA_MAX_TICKS: a bad value is warned about and the
    // configured shard count stays; a good one overrides it.
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 1;
    cfg.shards = 2;
    struct UnsetOnExit
    {
        ~UnsetOnExit() { unsetenv("CCNUMA_SHARDS"); }
    } unset_on_exit;
    for (const char *bad : {"two", "", "0", "-1", "1.5", "+2", "4294967296"}) {
        SCOPED_TRACE(std::string("CCNUMA_SHARDS=") + bad);
        ASSERT_EQ(setenv("CCNUMA_SHARDS", bad, 1), 0);
        testing::internal::CaptureStderr();
        Machine m(cfg);
        std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("CCNUMA_SHARDS"), std::string::npos) << err;
        EXPECT_EQ(m.shardsUsed(), 2u);
    }
    ASSERT_EQ(setenv("CCNUMA_SHARDS", "1", 1), 0);
    Machine serial(cfg);
    EXPECT_EQ(serial.shardsUsed(), 1u);
    EXPECT_TRUE(serial.shardFallbackReason().empty());
}

TEST(MachineConfigTest, BadTraceEnvKeepsConfiguredValues)
{
    // CCNUMA_TRACE_RING and CCNUMA_TRACE_SAMPLE take positive
    // integers. A bad value is warned about and the configured value
    // stays; a ring of 2^64 - 1 entries (what "-1" once wrapped to)
    // would never round up to a power of two.
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 1;
    cfg.obs.enabled = true;
    cfg.obs.chromeTraceFile = "";
    cfg.obs.metricsFile = "";
    cfg.obs.ringCapacity = 1024;
    cfg.obs.sampleEvery = 3;
    UniformWorkload::Knobs k;
    k.refsPerThread = 200;
    WorkloadParams p;
    p.numThreads = cfg.totalProcs();
    struct UnsetOnExit
    {
        ~UnsetOnExit()
        {
            unsetenv("CCNUMA_TRACE_RING");
            unsetenv("CCNUMA_TRACE_SAMPLE");
        }
    } unset_on_exit;
    for (const char *knob : {"CCNUMA_TRACE_RING", "CCNUMA_TRACE_SAMPLE"}) {
        for (const char *bad : {"-1", "abc", "99999999999999999999"}) {
            SCOPED_TRACE(std::string(knob) + "=" + bad);
            ASSERT_EQ(setenv(knob, bad, 1), 0);
            testing::internal::CaptureStderr();
            Machine m(cfg);
            std::string err = testing::internal::GetCapturedStderr();
            EXPECT_NE(err.find(knob), std::string::npos) << err;
            EXPECT_EQ(m.config().obs.ringCapacity, 1024u);
            EXPECT_EQ(m.config().obs.sampleEvery, 3u);
            UniformWorkload w(p, k);
            EXPECT_TRUE(m.run(w).completed);
            unsetenv(knob);
        }
    }
    ASSERT_EQ(setenv("CCNUMA_TRACE_RING", "4096", 1), 0);
    ASSERT_EQ(setenv("CCNUMA_TRACE_SAMPLE", "5", 1), 0);
    Machine good(cfg);
    EXPECT_EQ(good.config().obs.ringCapacity, 4096u);
    EXPECT_EQ(good.config().obs.sampleEvery, 5u);

    cfg.obs.ringCapacity = ~std::size_t(0);
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(MachineConfigTest, BadVerifyEnvWarnsWhateverTheConfig)
{
    // CCNUMA_VERIFY takes checker|watchdog|all|1. A typo is reported
    // even when the config already has the checker on, and it turns
    // nothing on.
    struct UnsetOnExit
    {
        ~UnsetOnExit() { unsetenv("CCNUMA_VERIFY"); }
    } unset_on_exit;
    ASSERT_EQ(setenv("CCNUMA_VERIFY", "wachdog", 1), 0);
    for (bool checker : {true, false}) {
        SCOPED_TRACE(checker ? "checker on" : "checker off");
        MachineConfig cfg = MachineConfig::base();
        cfg.verify.checker = checker;
        testing::internal::CaptureStderr();
        cfg.withEnvOverrides();
        std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("CCNUMA_VERIFY=wachdog"), std::string::npos)
            << err;
        EXPECT_EQ(cfg.verify.checker, checker);
        EXPECT_FALSE(cfg.verify.watchdog);
    }
    ASSERT_EQ(setenv("CCNUMA_VERIFY", "watchdog", 1), 0);
    MachineConfig cfg = MachineConfig::base();
    cfg.verify.checker = true;
    testing::internal::CaptureStderr();
    cfg.withEnvOverrides();
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_TRUE(cfg.verify.checker);
    EXPECT_TRUE(cfg.verify.watchdog);
}

TEST(MachineConfigTest, FaultToleranceBuildersOnlyRaise)
{
    using FT = FaultTolerance;
    // Each builder raises the level to its own and never lowers it,
    // so the order of the calls does not matter.
    EXPECT_EQ(MachineConfig::base().faultTolerance, FT::None);
    EXPECT_EQ(MachineConfig::base().withReliableTransport().faultTolerance,
              FT::Transport);
    EXPECT_EQ(MachineConfig::base().withCrashRecovery().faultTolerance,
              FT::Recovery);
    EXPECT_EQ(MachineConfig::base().withIntegrity().faultTolerance,
              FT::Integrity);
    EXPECT_EQ(MachineConfig::base()
                  .withIntegrity()
                  .withCrashRecovery()
                  .withReliableTransport()
                  .faultTolerance,
              FT::Integrity);
    EXPECT_EQ(MachineConfig::base()
                  .withCrashRecovery()
                  .withReliableTransport()
                  .faultTolerance,
              FT::Recovery);
}

TEST(MachineConfigTest, FaultToleranceEnvKnobsOnlyRaise)
{
    using FT = FaultTolerance;
    // The environment knobs raise the level as the builders do; off
    // leaves the built level alone, however high or low it is.
    struct UnsetOnExit
    {
        ~UnsetOnExit()
        {
            unsetenv("CCNUMA_RELIABLE");
            unsetenv("CCNUMA_RECOVERY");
            unsetenv("CCNUMA_INTEGRITY");
        }
    } unset_on_exit;
    const std::pair<const char *, FT> knobs[] = {
        {"CCNUMA_RELIABLE", FT::Transport},
        {"CCNUMA_RECOVERY", FT::Recovery},
        {"CCNUMA_INTEGRITY", FT::Integrity},
    };
    for (const auto &[knob, raised] : knobs) {
        for (FT built :
             {FT::None, FT::Transport, FT::Recovery, FT::Integrity}) {
            SCOPED_TRACE(std::string(knob) + " on a " +
                         faultToleranceName(built) + " config");
            MachineConfig cfg = MachineConfig::base();
            cfg.faultTolerance = built;
            ASSERT_EQ(setenv(knob, "on", 1), 0);
            EXPECT_EQ(MachineConfig(cfg).withEnvOverrides().faultTolerance,
                      std::max(built, raised));
            ASSERT_EQ(setenv(knob, "off", 1), 0);
            EXPECT_EQ(MachineConfig(cfg).withEnvOverrides().faultTolerance,
                      built);
        }
        unsetenv(knob);
    }
}

TEST(MachineConfigTest, FaultToleranceLevelsNest)
{
    using FT = FaultTolerance;
    // Each level arms its own subsystems and every one below it.
    for (FT level :
         {FT::None, FT::Transport, FT::Recovery, FT::Integrity}) {
        SCOPED_TRACE(faultToleranceName(level));
        MachineConfig cfg = MachineConfig::base();
        cfg.numNodes = 2;
        cfg.node.procsPerNode = 1;
        cfg.faultTolerance = level;
        Machine m(cfg);
        EXPECT_EQ(m.transport() != nullptr, level >= FT::Transport);
        EXPECT_EQ(m.recoveryManager() != nullptr, level >= FT::Recovery);
        EXPECT_EQ(m.integrityManager() != nullptr,
                  level >= FT::Integrity);
    }
}

TEST(MachinePerf, PpcSlowerThanHwcUnderLoad)
{
    RunResult hwc = runUniform(Arch::HWC, 4, 4, heavyKnobs());
    RunResult ppc = runUniform(Arch::PPC, 4, 4, heavyKnobs());
    EXPECT_GT(ppc.execTicks, hwc.execTicks);
    // The PP's occupancy per request is higher.
    EXPECT_GT(ppc.ccOccupancy, hwc.ccOccupancy);
}

TEST(MachinePerf, TwoEnginesNeverMuchWorse)
{
    RunResult one = runUniform(Arch::PPC, 4, 4, heavyKnobs());
    RunResult two = runUniform(Arch::TwoPPC, 4, 4, heavyKnobs());
    // Under saturating load the second engine should help, and in
    // no case should it cost more than a small constant factor.
    EXPECT_LT(static_cast<double>(two.execTicks),
              1.05 * static_cast<double>(one.execTicks));
}

TEST(MachinePerf, RccpiRoughlyArchIndependent)
{
    // The paper: RCCPI differs by less than 1% across the four
    // implementations for all applications. Allow a few percent for
    // our smaller runs.
    RunResult a = runUniform(Arch::HWC, 4, 2, heavyKnobs());
    RunResult b = runUniform(Arch::PPC, 4, 2, heavyKnobs());
    ASSERT_GT(a.rccpi(), 0.0);
    EXPECT_NEAR(b.rccpi() / a.rccpi(), 1.0, 0.05);
}

TEST(MachinePerf, StatsArePlumbed)
{
    RunResult r = runUniform(Arch::PPC, 2, 2, heavyKnobs());
    EXPECT_GT(r.avgUtilization, 0.0);
    EXPECT_LE(r.avgUtilization, 1.0);
    EXPECT_GT(r.arrivalsPerUs, 0.0);
    EXPECT_GT(r.avgQueueDelayTicks, 0.0);
    EXPECT_GT(r.memRefs, 0u);
}

TEST(MachinePerf, SlowNetworkSlowsExecution)
{
    UniformWorkload::Knobs k = heavyKnobs();
    MachineConfig fast = MachineConfig::base();
    fast.numNodes = 4;
    fast.node.procsPerNode = 2;
    fast.withArch(Arch::HWC);
    MachineConfig slow = fast;
    slow.withNetworkLatency(200); // 1 us

    WorkloadParams p;
    p.numThreads = fast.totalProcs();

    Machine mf(fast);
    UniformWorkload wf(p, k);
    RunResult rf = mf.run(wf);

    Machine ms(slow);
    UniformWorkload ws(p, k);
    RunResult rs = ms.run(ws);

    EXPECT_GT(rs.execTicks, rf.execTicks);
}

} // namespace
} // namespace ccnuma
