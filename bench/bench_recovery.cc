/**
 * @file
 * Recovery scorecard: run every SPLASH-2 kernel under a seeded
 * drop/duplicate/reorder fault campaign with end-to-end message
 * recovery enabled, and print what the reliable transport and the
 * bounded NACK-retry policy had to do to finish each run. A clean
 * (fault-free, recovery-off) reference run per kernel confirms that
 * recovery preserved the retired-instruction results exactly.
 *
 * Extra options on top of bench_common:
 *   --seed=<n>   fault-injector seed (default 11)
 */

#include <cstdint>

#include "bench_common.hh"
#include "fault_table.hh"
#include "verify/checker.hh"

namespace ccnuma
{
namespace bench
{
namespace
{

constexpr const char *kKernels[] = {"LU",     "Cholesky", "Water-Nsq",
                                    "Water-Sp", "Barnes", "FFT",
                                    "Radix",  "Ocean"};

MachineConfig
campaignConfig(const std::string &app, const Options &o,
               std::uint64_t seed)
{
    unsigned procs = procsForApp(app, o.procs);
    MachineConfig cfg = MachineConfig::base();
    cfg.withProcsPerNode(cfg.node.procsPerNode, procs);
    cfg.withArch(Arch::PPC);
    cfg.verify.checker = true;
    cfg.verify.faults.seed = seed;
    cfg.verify.faults.dropEveryN = 97;
    cfg.verify.faults.duplicateProb = 0.02;
    cfg.verify.faults.reorderProb = 0.02;
    cfg.verify.faults.reorderDelayMax = 300;
    return cfg;
}

RunResult
run(const std::string &app, const MachineConfig &cfg, const Options &o)
{
    WorkloadParams p;
    p.numThreads = cfg.totalProcs();
    p.scale = o.scale;
    p.lineBytes = cfg.node.lineBytes;
    auto w = makeWorkload(app, p);
    Machine m(cfg);
    return m.run(*w);
}

} // namespace
} // namespace bench
} // namespace ccnuma

int
main(int argc, char **argv)
{
    using namespace ccnuma;
    using namespace ccnuma::bench;

    std::uint64_t seed = 11;
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--seed=", 0) == 0)
            seed = std::stoull(arg.substr(7));
        else
            rest.push_back(argv[i]);
    }
    Options o = parseOptions(static_cast<int>(rest.size()),
                             rest.data());

    printHeader("Recovery scorecard: seeded fault campaign with "
                "end-to-end message recovery (seed " +
                    std::to_string(seed) + ")",
                o);

    FaultTable card({{"workload", "TOTAL"}},
                    {{"instrs", &RunResult::instructions},
                     {"faults", &RunResult::faultsInjected},
                     {"rexmit", &RunResult::xportRetransmits},
                     {"timeout", &RunResult::xportTimeouts},
                     {"dup-drop", &RunResult::xportDupsDropped},
                     {"reorder", &RunResult::xportReordersHealed},
                     {"nack-retry", &RunResult::nackRetries},
                     // protocol-level backoff waits
                     {"backoff-tk", &RunResult::retryBackoffTicks}},
                    {"done"});
    bool all_exact = true;
    for (const char *app : kKernels) {
        if (!o.wantsApp(app))
            continue;

        // Clean reference: no faults, no recovery.
        MachineConfig clean = MachineConfig::base();
        clean.withProcsPerNode(clean.node.procsPerNode,
                               procsForApp(app, o.procs));
        clean.withArch(Arch::PPC);
        RunResult ref = run(app, clean, o);

        MachineConfig cfg =
            campaignConfig(app, o, seed).withReliableTransport();
        RunResult r = run(app, cfg, o);

        card.addRow({r.workload}, r, {r.completed});

        if (r.instructions != ref.instructions) {
            all_exact = false;
            std::cout << app << ": retired " << r.instructions
                      << " under recovery vs " << ref.instructions
                      << " clean -- MISMATCH\n";
        }
    }
    card.table().print(std::cout);
    std::cout << (all_exact
                      ? "all kernels retired identical instruction "
                        "counts with recovery enabled\n"
                      : "RESULT MISMATCH under recovery (see above)\n");
    return all_exact ? 0 : 1;
}
