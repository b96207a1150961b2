/**
 * @file
 * Table 4 reproduction: protocol engine occupancies of all protocol
 * handlers for HWC and PPC, computed from the Table 2 sub-operation
 * model. Handlers that perform a local SMP-bus/memory operation are
 * charged the no-contention estimate of that operation, matching the
 * paper's statement that handler occupancy includes SMP bus and
 * local memory access times.
 */

#include <iostream>

#include "bench_common.hh"
#include "protocol/handlers.hh"
#include "report/table.hh"
#include "system/config.hh"

namespace ccnuma
{
namespace
{

Tick
busOpEstimate(const MachineConfig &cfg, CcBusOp op)
{
    const BusParams &b = cfg.node.bus;
    switch (op) {
      case CcBusOp::None:
        return 0;
      case CcBusOp::FetchRead:
      case CcBusOp::FetchReadExcl:
        // arbitration + strobe-to-memory-data + critical beat
        return b.arbLatency + cfg.node.mem.accessLatency +
               b.beatTicks;
      case CcBusOp::InvalOnly:
        return b.arbLatency + b.snoopLatency;
    }
    return 0;
}

int
run()
{
    MachineConfig cfg = MachineConfig::base();
    OccupancyModel hwc(EngineType::HWC), pp(EngineType::PP);

    report::Table t({"handler", "HWC", "PPC", "PPC/HWC"});
    double ratio_sum = 0.0;
    const Tick data_hold =
        (cfg.node.lineBytes / cfg.node.bus.busWidthBytes - 1) *
        cfg.node.bus.beatTicks;
    for (unsigned i = 0; i < numHandlers; ++i) {
        const HandlerSpec &s = allHandlerSpecs()[i];
        Tick est = busOpEstimate(cfg, s.busOp) +
                   (s.movesData ? data_hold : 0);
        int targets = s.perTarget.empty() ? 0 : 1;
        Tick h = s.nominalOccupancy(hwc, est, targets);
        Tick p = s.nominalOccupancy(pp, est, targets);
        double ratio = double(p) / double(h);
        if (i < numTable4Handlers)
            ratio_sum += ratio;
        std::string name = s.name;
        if (i >= numTable4Handlers)
            name += " (bookkeeping, not in Table 4)";
        t.addRow({name, report::fmt("%llu", (unsigned long long)h),
                  report::fmt("%llu", (unsigned long long)p),
                  report::fmt("%.2f", ratio)});
    }

    std::cout << "\nTable 4: protocol engine occupancies in compute "
                 "processor cycles (5 ns)\n"
                 "(per-handler values reconstructed from the sub-op "
                 "model; the paper's per-cell\n values are not "
                 "readable in the OCR — the readable anchor is the "
                 "~2.5x total\n PPC/HWC occupancy ratio of Section "
                 "3.3)\n";
    bench::JsonReport session("table4_handlers", bench::Options{});
    session.table("Table 4: protocol handler occupancies", t);
    std::cout << report::fmt(
        "\nmean PPC/HWC ratio over the 23 Table 4 handlers: %.2f "
        "(paper anchor: ~2.5)\n",
        ratio_sum / numTable4Handlers);
    return 0;
}

} // namespace
} // namespace ccnuma

int
main()
{
    return ccnuma::run();
}
