/**
 * @file
 * Tracing must be purely observational: running any kernel with the
 * observability subsystem enabled retires exactly the same
 * instruction count, in exactly the same number of cycles, as the
 * untraced run. Parameterized over all eight SPLASH-2 kernels.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/tracer.hh"
#include "system/machine.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace
{

class TracedKernels : public ::testing::TestWithParam<std::string>
{
  protected:
    static MachineConfig
    config(bool traced)
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.numNodes = 2;
        cfg.node.procsPerNode = 2;
        cfg.withArch(Arch::PPC);
        if (traced) {
            cfg.obs.enabled = true;
            // Keep the aggregates live but skip file output: the
            // comparison is about simulated state, not sinks.
            cfg.obs.chromeTraceFile = "";
            cfg.obs.metricsFile = "";
        }
        return cfg;
    }

    static RunResult
    runOnce(const std::string &app, bool traced)
    {
        MachineConfig cfg = config(traced);
        WorkloadParams p;
        p.numThreads = cfg.totalProcs();
        p.scale = 0.05;
        p.lineBytes = cfg.node.lineBytes;
        auto w = makeWorkload(app, p);
        Machine m(cfg);
        return m.run(*w);
    }
};

TEST_P(TracedKernels, RetiresIdenticalWorkTracedAndUntraced)
{
    RunResult plain = runOnce(GetParam(), /*traced=*/false);
    RunResult traced = runOnce(GetParam(), /*traced=*/true);

    EXPECT_GT(plain.instructions, 0u);
    EXPECT_EQ(traced.instructions, plain.instructions);
    EXPECT_EQ(traced.memRefs, plain.memRefs);
    EXPECT_EQ(traced.misses, plain.misses);
    EXPECT_EQ(traced.execTicks, plain.execTicks);
    EXPECT_EQ(traced.ccRequests, plain.ccRequests);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, TracedKernels,
    ::testing::Values("LU", "Cholesky", "Water-Nsq", "Water-Sp",
                      "Barnes", "FFT", "Radix", "Ocean"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

} // namespace
} // namespace ccnuma
