/**
 * @file
 * Crash-recovery campaign: seeded fail-stop controller faults must be
 * healed transparently. A transient crash (with or without directory
 * SRAM loss) ends with the kernel retiring exactly the clean run's
 * instruction count, the invariant checker finding nothing, and the
 * rebuilt directory cross-checked line by line against the caches.
 * Also covers the MachineConfig::validate() rules that reject
 * unsurvivable crash configurations, and the CCNUMA_RECOVERY knob.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "recovery/recovery_manager.hh"
#include "verify/checker.hh"
#include "verify/fault_injector.hh"
#include "system/machine.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace
{

MachineConfig
smallConfig()
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 2;
    cfg.withArch(Arch::PPC);
    return cfg;
}

RunResult
runKernel(Machine &m, const std::string &kernel)
{
    WorkloadParams p;
    p.numThreads = m.totalProcs();
    p.scale = 0.05;
    auto w = makeWorkload(kernel, p);
    return m.run(*w);
}

/** Crash node 1 at @p at; heal it repairTicks later. */
MachineConfig
crashConfig(Tick at, bool lose_directory)
{
    MachineConfig cfg = smallConfig().withCrashRecovery();
    cfg.verify.checker = true;
    CrashFault f;
    f.node = 1;
    f.atTick = at;
    f.loseDirectory = lose_directory;
    cfg.verify.faults.crashes.push_back(f);
    return cfg;
}

class CrashedKernel
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(CrashedKernel, TransientCrashHealedWithIdenticalResults)
{
    const auto &[kernel, lose_directory] = GetParam();

    // Clean reference (no faults, recovery off).
    RunResult ref;
    {
        Machine m(smallConfig());
        ref = runKernel(m, kernel);
        ASSERT_GT(ref.instructions, 0u);
    }

    // Crash mid-run: half way through the clean execution time.
    Machine m(crashConfig(ref.execTicks / 2, lose_directory));
    RunResult r = runKernel(m, kernel);

    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.instructions, ref.instructions);
    EXPECT_EQ(r.crashesInjected, 1u);

    ASSERT_NE(m.checker(), nullptr);
    EXPECT_EQ(m.checker()->violations(), 0u)
        << m.checker()->firstViolation();

    ASSERT_NE(m.injector(), nullptr);
    EXPECT_EQ(m.injector()->injectedCrashes(), 1u);

    if (lose_directory) {
        // The SRAM was lost: the restart must have rebuilt the full
        // map from DirProbe responses, and the checker must have
        // cross-checked the rebuilt entries against the caches.
        EXPECT_EQ(r.dirRebuilds, 1u);
        EXPECT_GT(r.reconstructionTicksMax, 0u);
        EXPECT_GE(m.checker()->rebuildChecks(), 1u);
    } else {
        // Directory survived: replay, no reconstruction epoch.
        EXPECT_EQ(r.dirRebuilds, 0u);
    }
    // Either way nothing went degraded: the controller came back.
    EXPECT_EQ(r.degradedEntries, 0u);
    EXPECT_EQ(r.migrations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, CrashedKernel,
    ::testing::Combine(::testing::Values("FFT", "LU", "Radix",
                                         "Ocean"),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_LostDirectory"
                                        : "_DirectoryIntact");
    });

TEST(CrashCampaign, DeterministicAcrossRuns)
{
    auto once = [] {
        Machine m(crashConfig(40'000, /*lose_directory=*/true));
        RunResult r = runKernel(m, "FFT");
        return std::tuple(r.execTicks, r.instructions, r.dirRebuilds,
                          r.rebuildLines, r.recoveryNacks,
                          r.missTimeouts);
    };
    EXPECT_EQ(once(), once());
}

TEST(CrashCampaign, RecoveryEnabledWithoutCrashIsResultIdentical)
{
    // Arming the machinery without any fault must not perturb the
    // simulated execution: miss timers arm and cancel, nothing fires.
    RunResult ref;
    {
        Machine m(smallConfig());
        ref = runKernel(m, "LU");
    }
    MachineConfig cfg = smallConfig().withCrashRecovery();
    Machine m(cfg);
    ASSERT_NE(m.recoveryManager(), nullptr);
    RunResult r = runKernel(m, "LU");
    EXPECT_EQ(r.instructions, ref.instructions);
    EXPECT_EQ(r.execTicks, ref.execTicks);
    EXPECT_EQ(r.missTimeouts, 0u);
    EXPECT_EQ(r.crashesInjected, 0u);
}

TEST(CrashCampaign, EnvKnobEnablesRecovery)
{
    ASSERT_EQ(setenv("CCNUMA_RECOVERY", "1", 1), 0);
    MachineConfig cfg = smallConfig();
    Machine m(cfg);
    unsetenv("CCNUMA_RECOVERY");
    ASSERT_NE(m.recoveryManager(), nullptr);
    ASSERT_NE(m.transport(), nullptr);
    RunResult r = runKernel(m, "FFT");
    EXPECT_TRUE(r.completed);
}

TEST(CrashCampaign, CrashFaultsForceSerialScheduler)
{
    MachineConfig cfg = crashConfig(10'000, false);
    cfg.numNodes = 2;
    cfg.shards = 2;
    cfg.node.procsPerNode = 1;
    Machine m(cfg);
    EXPECT_EQ(m.shardsUsed(), 1u);
    EXPECT_FALSE(m.shardFallbackReason().empty());
    RunResult r = runKernel(m, "FFT");
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.shardsUsed, 1u);
    EXPECT_EQ(r.shardsRequested, 2u);
    EXPECT_FALSE(r.shardFallback.empty());
}

// --- MachineConfig::validate() rejection rules ---

TEST(CrashConfigValidation, CrashWithoutRecoveryRejected)
{
    // The reliable transport alone cannot restart a dead controller.
    for (FaultTolerance level :
         {FaultTolerance::None, FaultTolerance::Transport}) {
        MachineConfig cfg = smallConfig();
        cfg.faultTolerance = level;
        CrashFault f;
        f.node = 1;
        f.atTick = 100;
        cfg.verify.faults.crashes.push_back(f);
        EXPECT_THROW(cfg.validate(), FatalError)
            << faultToleranceName(level);
    }
}

TEST(CrashConfigValidation, CrashNodeOutOfRangeRejected)
{
    MachineConfig cfg = smallConfig().withCrashRecovery();
    CrashFault f;
    f.node = 7; // only 2 nodes
    f.atTick = 100;
    cfg.verify.faults.crashes.push_back(f);
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(CrashConfigValidation, DefaultsAcceptCrashRecovery)
{
    EXPECT_NO_THROW(smallConfig().withCrashRecovery().validate());
}

} // namespace
} // namespace ccnuma
