/**
 * @file
 * Handler coverage: every one of the paper's 23 Table 4 handlers, and
 * the writeback and owner-nack handlers beside them, is dispatched by
 * the eight SPLASH-2 kernels on HWC and 2HWC plus one dirty-eviction
 * script, counted by the observability tracer. (The directory-probe
 * handlers run only under the crash campaign.)
 */

#include <gtest/gtest.h>

#include <array>

#include "obs/tracer.hh"
#include "system/machine.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace
{

using Counts = std::array<std::uint64_t, numHandlers>;

MachineConfig
tracedConfig(unsigned nodes, unsigned procs, Arch arch)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = nodes;
    cfg.node.procsPerNode = procs;
    cfg.withArch(arch);
    cfg.obs.enabled = true;
    cfg.obs.chromeTraceFile = "";
    cfg.obs.metricsFile = "";
    return cfg;
}

void
addCounts(Machine &m, Workload &w, Counts &counts)
{
    m.run(w);
    ASSERT_NE(m.tracer(), nullptr);
    for (unsigned h = 0; h < numHandlers; ++h)
        counts[h] += m.tracer()->handlerCount(static_cast<HandlerId>(h));
}

TEST(HandlerCoverage, EveryTable4HandlerDispatched)
{
    Counts counts{};
    for (const char *app : {"LU", "Cholesky", "Water-Nsq", "Water-Sp",
                            "Barnes", "FFT", "Radix", "Ocean"}) {
        for (Arch arch : {Arch::HWC, Arch::TwoHWC}) {
            Machine m(tracedConfig(4, 2, arch));
            WorkloadParams p;
            p.numThreads = m.totalProcs();
            p.scale = 0.05;
            auto w = makeWorkload(app, p);
            addCounts(m, *w, counts);
        }
    }

    // The kernels never evict a dirty remote line; this script does
    // (the same one as DispatchPaths.RequestFollowsWritebackStalls).
    Machine m(tracedConfig(2, 1, Arch::HWC));
    const Addr L = 0x10'0000;
    std::vector<std::vector<ThreadOp>> scripts(2);
    scripts[0].push_back(ThreadOp::compute(10));
    scripts[1].push_back(ThreadOp::store(L));
    for (unsigned k = 1; k <= 4; ++k)
        scripts[1].push_back(ThreadOp::load(L + k * 0x40000));
    scripts[1].push_back(ThreadOp::store(L));
    WorkloadParams p;
    p.numThreads = 2;
    ScriptWorkload w(p, scripts);
    addCounts(m, w, counts);

    std::vector<HandlerId> required;
    for (unsigned h = 0; h < numTable4Handlers; ++h)
        required.push_back(static_cast<HandlerId>(h));
    required.push_back(HandlerId::WriteBackAtHome);
    required.push_back(HandlerId::SharingWriteBackAtHome);
    required.push_back(HandlerId::OwnerNackAtHome);
    for (HandlerId h : required) {
        EXPECT_GT(counts[static_cast<unsigned>(h)], 0u)
            << handlerName(h) << " never dispatched";
    }
}

} // namespace
} // namespace ccnuma
