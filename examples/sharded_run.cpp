/**
 * @file
 * Sharded scheduler demo: run the same SPLASH-2 kernel on the same
 * machine with the machine's nodes sharded across worker threads and
 * on the serial event scheduler with deferred sync grants (the
 * sharded runs' grant timing, CCNUMA_SYNC_DEFER=1), then compare wall
 * clocks and verify the simulated results are bit-identical. The
 * default serial run, whose sync wakes have zero delay, is printed
 * beside them; it is a different simulation and is not compared.
 *
 *   $ ./build/examples/sharded_run [shards] [scale]
 *
 * Defaults: shards = min(8, hardware threads), scale = 0.2. On a
 * single-core host the sharded run is slower (barrier overhead with
 * no parallelism) but still bit-identical; the identity assertion is
 * the point of the demo.
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "system/machine.hh"
#include "workload/workload.hh"

namespace
{

struct Timed
{
    ccnuma::RunResult result;
    double ms = 0.0;
};

Timed
runOnce(unsigned shards, bool defer_sync, double scale)
{
    using namespace ccnuma;
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 16;
    cfg.node.procsPerNode = 4;
    cfg.withArch(Arch::PPC);
    cfg.shards = shards;
    cfg.forceSyncDefer = defer_sync;

    WorkloadParams wp;
    wp.numThreads = cfg.totalProcs();
    wp.scale = scale;
    auto w = makeWorkload("Ocean", wp);

    Machine m(cfg);
    auto t0 = std::chrono::steady_clock::now();
    Timed t;
    t.result = m.run(*w);
    t.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    unsigned shards = argc > 1
                          ? static_cast<unsigned>(std::atoi(argv[1]))
                          : std::min(8u, std::max(2u, hw));
    double scale = argc > 2 ? std::atof(argv[2]) : 0.2;

    std::cout << "Ocean on 16x4 PPC, scale " << scale << ", "
              << hw << " hardware threads\n\n";

    Timed plain = runOnce(1, false, scale);
    std::cout << "serial, default sync wakes:  " << plain.ms << " ms, "
              << plain.result.instructions << " instructions, "
              << plain.result.execTicks << " simulated cycles\n";

    Timed serial = runOnce(1, true, scale);
    std::cout << "serial, deferred sync grants: " << serial.ms
              << " ms, " << serial.result.instructions
              << " instructions, " << serial.result.execTicks
              << " simulated cycles\n";

    Timed sharded = runOnce(shards, false, scale);
    std::cout << "sharded (" << sharded.result.shardsUsed
              << " shards):          " << sharded.ms << " ms, "
              << sharded.result.instructions << " instructions, "
              << sharded.result.execTicks << " simulated cycles\n";
    if (!sharded.result.shardFallback.empty()) {
        std::cout << "  (fell back to serial: "
                  << sharded.result.shardFallback << ")\n";
    }

    if (sharded.result.instructions != serial.result.instructions ||
        sharded.result.execTicks != serial.result.execTicks) {
        std::cerr << "FAIL: sharded run diverged from the serial run "
                     "with deferred sync grants\n";
        return 1;
    }
    std::cout << "\nbit-identical to the deferred-grant serial run: "
                 "yes (same retired instructions and simulated "
                 "cycles)\n"
              << "wall-clock speedup over it: " << serial.ms / sharded.ms
              << "x\n";
    return 0;
}
