/**
 * @file
 * Timeout-escalation ladder: a permanently dead home must be survived
 * in degraded mode. One scripted miss against the dead node walks the
 * full ladder — per-miss timer expiry, re-send rung, recovery-probe
 * rung, degraded-mode entry — with each counter firing exactly as
 * often as the controller's ladder constants say, and the run
 * finishing checker-clean on the surviving node after the dead home's
 * pages are remapped.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "mem/address_map.hh"
#include "recovery/recovery_manager.hh"
#include "system/machine.hh"
#include "verify/checker.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace
{

constexpr Tick kCrashTick = 10'000;
using CC = CoherenceController;

MachineConfig
ladderConfig()
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 1;
    cfg.withArch(Arch::PPC);
    cfg.withCrashRecovery();
    cfg.verify.checker = true;
    CrashFault f;
    f.node = 1;
    f.atTick = kCrashTick;
    f.loseDirectory = true;
    f.permanent = true; // never restarts: the ladder must bottom out
    cfg.verify.faults.crashes.push_back(f);
    return cfg;
}

/**
 * Thread 0 (node 0) touches two lines homed at node 1: one before
 * the crash (so the survivor holds a dirty copy the migration must
 * preserve) and one after (the miss that walks the ladder). Thread 1
 * (node 1) finishes before its controller dies — no barriers after
 * the crash point, since the dead node's processor never syncs again.
 */
ScriptWorkload
ladderWorkload(Machine &m)
{
    Addr remote = 0x10'0000;
    while (m.map().homeOf(remote) != 1)
        remote += m.config().pageBytes;
    Addr remote2 = remote + m.config().node.lineBytes;

    std::vector<std::vector<ThreadOp>> scripts(2);
    scripts[0] = {
        ThreadOp::store(remote),     // pre-crash: dirty remote copy
        ThreadOp::compute(30'000),   // ride past the crash tick
        ThreadOp::store(remote2),    // post-crash: walks the ladder
        ThreadOp::load(remote),      // survives the migration
    };
    scripts[1] = {ThreadOp::compute(10)};

    WorkloadParams p;
    p.numThreads = 2;
    return ScriptWorkload(p, scripts);
}

TEST(TimeoutLadder, PermanentCrashEscalatesToDegradedMode)
{
    Machine m(ladderConfig());
    ScriptWorkload w = ladderWorkload(m);
    RunResult r = m.run(w);

    // The survivor finished; the machine ran degraded but complete.
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.crashesInjected, 1u);

    // The ladder walked every rung: timeoutRetries expiries answered
    // by a re-send, then probeRetries by a recovery probe, and the
    // last one by degraded-mode entry (2 + 2 + 1 timer expiries).
    static_assert(CC::timeoutRetries == 2 && CC::probeRetries == 2);
    EXPECT_EQ(r.missTimeouts, CC::timeoutRetries + CC::probeRetries + 1);
    EXPECT_EQ(r.timeoutResends, CC::timeoutRetries);
    EXPECT_EQ(r.recoveryProbes, CC::probeRetries);
    EXPECT_EQ(r.degradedEntries, 1u);

    // The dead home was fenced and its pages remapped exactly once.
    EXPECT_EQ(r.migrations, 1u);
    EXPECT_TRUE(m.map().remapActive());
    ASSERT_NE(m.recoveryManager(), nullptr);
    EXPECT_EQ(m.recoveryManager()->migrations(), 1u);
    EXPECT_EQ(m.recoveryManager()->successorOf(1), 0u);

    // No reconstruction ever ran: the controller never restarted.
    EXPECT_EQ(r.dirRebuilds, 0u);

    // Checker-clean throughout, including the post-migration state.
    ASSERT_NE(m.checker(), nullptr);
    EXPECT_EQ(m.checker()->violations(), 0u)
        << m.checker()->firstViolation();
}

TEST(TimeoutLadder, DegradedRunIsDeterministic)
{
    auto once = [] {
        Machine m(ladderConfig());
        ScriptWorkload w = ladderWorkload(m);
        RunResult r = m.run(w);
        return std::tuple(r.execTicks, r.instructions,
                          r.missTimeouts, r.migrations);
    };
    EXPECT_EQ(once(), once());
}

TEST(TimeoutLadder, NoEscalationWhenHomeRestartsInTime)
{
    // Same script, but the crash is transient and repaired well
    // before the first miss timer expires: the ladder never fires.
    static_assert(kCrashTick + CC::repairTicks < CC::missTimeoutTicks);
    MachineConfig cfg = ladderConfig();
    cfg.verify.faults.crashes[0].permanent = false;
    cfg.verify.faults.crashes[0].loseDirectory = false;
    Machine m(cfg);
    ScriptWorkload w = ladderWorkload(m);
    RunResult r = m.run(w);

    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.degradedEntries, 0u);
    EXPECT_EQ(r.migrations, 0u);
    EXPECT_FALSE(m.map().remapActive());
    EXPECT_EQ(m.checker()->violations(), 0u)
        << m.checker()->firstViolation();
}

} // namespace
} // namespace ccnuma
