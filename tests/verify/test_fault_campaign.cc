/**
 * @file
 * Seeded fault-injection campaign against the online coherence
 * checker. Benign faults (bounded delay jitter, engine stalls) must
 * be survived transparently with zero violations; corrupting faults
 * (per-pair reordering, duplicate delivery) must be *detected* by the
 * checker and reported as injected-fault detections, not crashes.
 */

#include <gtest/gtest.h>

#include "system/machine.hh"
#include "verify/checker.hh"
#include "verify/fault_injector.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace
{

MachineConfig
checkedConfig()
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 2;
    cfg.withArch(Arch::PPC);
    cfg.verify.checker = true;
    return cfg;
}

RunResult
runKernel(Machine &m, const std::string &kernel, double scale)
{
    WorkloadParams p;
    p.numThreads = m.totalProcs();
    p.scale = scale;
    auto w = makeWorkload(kernel, p);
    return m.run(*w);
}

TEST(FaultCampaign, DelayJitterAndStallsSurvivedTransparently)
{
    // The protocol makes no assumption about absolute network
    // latency or engine speed, only per-pair FIFO order. Twenty
    // seeded runs with heavy (FIFO-preserving) delay jitter and
    // random engine stalls must all complete with the checker
    // finding nothing.
    std::uint64_t total_delays = 0;
    std::uint64_t total_stalls = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        MachineConfig cfg = checkedConfig();
        cfg.verify.faults.seed = seed;
        cfg.verify.faults.delayJitterProb = 0.3;
        cfg.verify.faults.delayJitterMax = 200;
        cfg.verify.faults.engineStallProb = 0.2;
        cfg.verify.faults.engineStallMax = 50;
        Machine m(cfg);
        RunResult r = runKernel(m, "FFT", 0.05);
        ASSERT_NE(m.checker(), nullptr);
        ASSERT_NE(m.injector(), nullptr);
        EXPECT_GT(r.instructions, 0u) << "seed " << seed;
        EXPECT_FALSE(m.checker()->shouldHalt()) << "seed " << seed;
        EXPECT_EQ(m.checker()->violations(), 0u)
            << "seed " << seed << ": "
            << m.checker()->firstViolation();
        EXPECT_GT(m.checker()->deliveries(), 0u) << "seed " << seed;
        total_delays += m.injector()->injectedDelays();
        total_stalls += m.injector()->injectedStalls();
    }
    // The campaign must actually have exercised the fault paths.
    EXPECT_GT(total_delays, 0u);
    EXPECT_GT(total_stalls, 0u);
}

TEST(FaultCampaign, JitteredRunsAreSeedDeterministic)
{
    auto once = [](std::uint64_t seed) {
        MachineConfig cfg = checkedConfig();
        cfg.verify.faults.seed = seed;
        cfg.verify.faults.delayJitterProb = 0.5;
        cfg.verify.faults.delayJitterMax = 300;
        Machine m(cfg);
        RunResult r = runKernel(m, "Radix", 0.04);
        return std::pair(r.execTicks, m.injector()->injectedDelays());
    };
    EXPECT_EQ(once(7), once(7));
    EXPECT_NE(once(7).first, once(8).first);
}

TEST(FaultCampaign, ReorderingDetectedByChecker)
{
    // Reordering breaks the per-pair FIFO property the protocol
    // relies on. With corrupting faults armed the checker runs in
    // tolerate mode: it must flag the overtaking delivery as an
    // injected-fault detection and halt the run cleanly.
    unsigned detections = 0;
    for (std::uint64_t seed = 1; seed <= 10 && detections == 0;
         ++seed) {
        MachineConfig cfg = checkedConfig();
        cfg.verify.faults.seed = seed;
        cfg.verify.faults.reorderProb = 0.05;
        cfg.verify.faults.reorderDelayMax = 2000;
        Machine m(cfg);
        runKernel(m, "FFT", 0.05);
        ASSERT_NE(m.checker(), nullptr);
        if (m.checker()->violations() > 0) {
            ++detections;
            EXPECT_TRUE(m.checker()->shouldHalt());
            EXPECT_NE(m.checker()->firstViolation().find(
                          "out-of-order"),
                      std::string::npos)
                << m.checker()->firstViolation();
        }
    }
    EXPECT_GE(detections, 1u)
        << "no seed produced a detected reordering";
}

TEST(FaultCampaign, HaltedRunReportsTheCompletedRunsArch)
{
    // A checker-halted run returns a partial result, assembled like
    // a completed one: same architecture label, completed == false.
    MachineConfig clean_cfg = checkedConfig();
    clean_cfg.withArch(Arch::TwoPPC);
    Machine clean(clean_cfg);
    const RunResult done = runKernel(clean, "FFT", 0.05);
    ASSERT_TRUE(done.completed);
    EXPECT_EQ(done.arch, "PPx2");
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        MachineConfig cfg = clean_cfg;
        cfg.verify.faults.seed = seed;
        cfg.verify.faults.reorderProb = 0.05;
        cfg.verify.faults.reorderDelayMax = 2000;
        Machine m(cfg);
        RunResult r = runKernel(m, "FFT", 0.05);
        if (!m.checker()->shouldHalt())
            continue;
        EXPECT_FALSE(r.completed);
        EXPECT_EQ(r.arch, "PPx2");
        return;
    }
    FAIL() << "no seed produced a checker-halted run";
}

TEST(FaultCampaign, DuplicateDeliveryDetectedByChecker)
{
    unsigned detections = 0;
    for (std::uint64_t seed = 1; seed <= 10 && detections == 0;
         ++seed) {
        MachineConfig cfg = checkedConfig();
        cfg.verify.faults.seed = seed;
        cfg.verify.faults.duplicateProb = 0.05;
        cfg.verify.faults.duplicateDelay = 64;
        Machine m(cfg);
        runKernel(m, "FFT", 0.05);
        ASSERT_NE(m.checker(), nullptr);
        if (m.checker()->violations() > 0) {
            ++detections;
            EXPECT_TRUE(m.checker()->shouldHalt());
            EXPECT_NE(m.checker()->firstViolation().find(
                          "duplicate delivery"),
                      std::string::npos)
                << m.checker()->firstViolation();
        }
    }
    EXPECT_GE(detections, 1u)
        << "no seed produced a detected duplicate";
}

TEST(FaultCampaign, StrictModeDuplicatePanics)
{
    // Without armed faults the checker runs strict: an unexpected
    // delivery (never stamped on the wire) must panic with the line
    // history, because it is a genuine simulator bug.
    MachineConfig cfg = checkedConfig();
    Machine m(cfg);
    Msg msg;
    msg.type = MsgType::WriteBackAck;
    msg.lineAddr = 0x10'0000;
    msg.src = 0;
    msg.dst = 1;
    msg.seq = 1;
    EXPECT_THROW(m.deliverMsg(msg), PanicError);
}

} // namespace
} // namespace ccnuma
