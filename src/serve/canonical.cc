#include "serve/canonical.hh"

#include <cstdio>

namespace ccnuma
{
namespace serve
{

// ---------------------------------------------------------------------
// New-field tripwire. If any of these fire, a config struct gained or
// lost a field: extend the canonical rendering below AND the
// perturbation test in tests/serve/test_canonical.cc, then update the
// expected size. Layout is only asserted where it is deterministic
// (x86-64 libstdc++, the platform CI runs); other platforms still get
// correct behavior, just not the tripwire.
// ---------------------------------------------------------------------
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(MachineConfig) == 544,
              "MachineConfig changed: update canonicalMachineConfig");
static_assert(sizeof(NodeParams) == 224,
              "NodeParams changed: update canonicalMachineConfig");
static_assert(sizeof(NetworkParams) == 24,
              "NetworkParams changed: update canonicalMachineConfig");
static_assert(sizeof(BusParams) == 48,
              "BusParams changed: update canonicalMachineConfig");
static_assert(sizeof(MemoryParams) == 24,
              "MemoryParams changed: update canonicalMachineConfig");
static_assert(sizeof(DirectoryParams) == 32,
              "DirectoryParams changed: update canonicalMachineConfig");
static_assert(sizeof(CcParams) == 40,
              "CcParams changed: update canonicalMachineConfig");
static_assert(sizeof(CacheUnitParams) == 56,
              "CacheUnitParams changed: update canonicalMachineConfig");
static_assert(sizeof(ProcessorParams) == 16,
              "ProcessorParams changed: update canonicalMachineConfig");
static_assert(sizeof(VerifyConfig) == 144,
              "VerifyConfig changed: update canonicalMachineConfig");
static_assert(sizeof(FaultConfig) == 128,
              "FaultConfig changed: update canonicalMachineConfig");
static_assert(sizeof(CrashFault) == 24,
              "CrashFault changed: update canonicalMachineConfig");
static_assert(sizeof(FlipFault) == 40,
              "FlipFault changed: update canonicalMachineConfig");
static_assert(sizeof(WorkloadParams) == 48,
              "WorkloadParams changed: update canonicalWorkload");
#endif

namespace
{

/** Append one `key=value\n` line. */
class Canon
{
  public:
    explicit Canon(std::string &out) : out_(out) {}

    void
    field(const char *key, std::uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        line(key, buf);
    }

    void
    field(const char *key, bool v)
    {
        line(key, v ? "1" : "0");
    }

    /**
     * Doubles render with %.17g: enough digits to round-trip any
     * IEEE-754 binary64, so distinct values never collapse to one
     * canonical text.
     */
    void
    field(const char *key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        line(key, buf);
    }

    void
    field(const char *key, const char *v)
    {
        line(key, v);
    }

  private:
    void
    line(const char *key, const char *val)
    {
        out_ += key;
        out_ += '=';
        out_ += val;
        out_ += '\n';
    }

    std::string &out_;
};

} // namespace

std::string
canonicalMachineConfig(const MachineConfig &cfg)
{
    std::string out;
    out.reserve(2048);
    Canon c(out);

    c.field("machine.numNodes", std::uint64_t(cfg.numNodes));
    c.field("machine.pageBytes", std::uint64_t(cfg.pageBytes));
    c.field("machine.placement",
            cfg.placement == PlacementPolicy::RoundRobin
                ? "round-robin"
                : "first-touch");
    c.field("machine.syncBase", std::uint64_t(cfg.syncBase));
    c.field("machine.syncHandoffTicks",
            std::uint64_t(cfg.syncHandoffTicks));
    c.field("machine.maxTicks", std::uint64_t(cfg.maxTicks));
    c.field("machine.faultTolerance",
            faultToleranceName(cfg.faultTolerance));
    // cfg.shards and cfg.obs are deliberately omitted: both are
    // proven result-invariant by the identity test suites (see the
    // header comment), so points may share cache entries across
    // them. Grant *timing* is not invariant, though: serial runs use
    // zero-delay sync wakes unless forceSyncDefer is set, while
    // sharded runs always defer — so the key carries the effective
    // deferral mode, letting a deferred serial oracle share entries
    // with every sharded point while undeferred serial stays its own.
    // A shard request that falls back to serial (a checked, traced or
    // otherwise armed run, or a zero lookahead) runs the undeferred
    // serial scheduler and keys as such: obs.* stays out of the key,
    // and with shards > 1 a traced run falls back like a checked run.
    c.field("sync.deferredGrants",
            cfg.lookahead() > 0 || cfg.forceSyncDefer);

    const NodeParams &n = cfg.node;
    c.field("node.procsPerNode", std::uint64_t(n.procsPerNode));
    c.field("node.lineBytes", std::uint64_t(n.lineBytes));

    const BusParams &b = n.bus;
    c.field("bus.arbLatency", std::uint64_t(b.arbLatency));
    c.field("bus.strobeSpacing", std::uint64_t(b.strobeSpacing));
    c.field("bus.snoopLatency", std::uint64_t(b.snoopLatency));
    c.field("bus.c2cDataLatency", std::uint64_t(b.c2cDataLatency));
    c.field("bus.beatTicks", std::uint64_t(b.beatTicks));
    c.field("bus.busWidthBytes", std::uint64_t(b.busWidthBytes));
    c.field("bus.maxOutstanding", std::uint64_t(b.maxOutstanding));

    const MemoryParams &m = n.mem;
    c.field("mem.numBanks", std::uint64_t(m.numBanks));
    c.field("mem.bankBusy", std::uint64_t(m.bankBusy));
    c.field("mem.accessLatency", std::uint64_t(m.accessLatency));

    const DirectoryParams &d = n.dir;
    c.field("dir.dramLatency", std::uint64_t(d.dramLatency));
    c.field("dir.dramBusy", std::uint64_t(d.dramBusy));
    c.field("dir.cacheEntries", std::uint64_t(d.cacheEntries));
    c.field("dir.cacheAssoc", std::uint64_t(d.cacheAssoc));
    c.field("dir.cacheEnabled", d.cacheEnabled);

    const CcParams &cc = n.cc;
    c.field("cc.engineType",
            cc.engineType == EngineType::HWC ? "hwc" : "pp");
    c.field("cc.numEngines", std::uint64_t(cc.numEngines));
    c.field("cc.dispatchLatency", std::uint64_t(cc.dispatchLatency));
    c.field("cc.niDelay", std::uint64_t(cc.niDelay));
    c.field("cc.ppTransferPoll", std::uint64_t(cc.ppTransferPoll));
    c.field("cc.livelockThreshold",
            std::uint64_t(cc.livelockThreshold));
    c.field("cc.directDataPath", cc.directDataPath);
    c.field("cc.priorityArbitration", cc.priorityArbitration);
    c.field("cc.dynamicSplit", cc.dynamicSplit);

    const CacheUnitParams &cu = n.cache;
    c.field("cache.l1Bytes", std::uint64_t(cu.l1Bytes));
    c.field("cache.l1Assoc", std::uint64_t(cu.l1Assoc));
    c.field("cache.l2Bytes", std::uint64_t(cu.l2Bytes));
    c.field("cache.l2Assoc", std::uint64_t(cu.l2Assoc));
    c.field("cache.l1HitLatency", std::uint64_t(cu.l1HitLatency));
    c.field("cache.l2HitLatency", std::uint64_t(cu.l2HitLatency));
    c.field("cache.fillRestart", std::uint64_t(cu.fillRestart));

    const ProcessorParams &pp = n.proc;
    c.field("proc.missDetect", std::uint64_t(pp.missDetect));
    c.field("proc.checkMonotonic", pp.checkMonotonic);

    const NetworkParams &net = cfg.net;
    c.field("net.flightLatency", std::uint64_t(net.flightLatency));
    c.field("net.portWidthBytes", std::uint64_t(net.portWidthBytes));
    c.field("net.portCycle", std::uint64_t(net.portCycle));

    const VerifyConfig &v = cfg.verify;
    c.field("verify.checker", v.checker);
    c.field("verify.watchdog", v.watchdog);
    c.field("verify.watchdogBudget",
            std::uint64_t(v.watchdogBudget));

    const FaultConfig &f = v.faults;
    c.field("faults.seed", std::uint64_t(f.seed));
    c.field("faults.delayJitterProb", f.delayJitterProb);
    c.field("faults.delayJitterMax",
            std::uint64_t(f.delayJitterMax));
    c.field("faults.engineStallProb", f.engineStallProb);
    c.field("faults.engineStallMax",
            std::uint64_t(f.engineStallMax));
    c.field("faults.reorderProb", f.reorderProb);
    c.field("faults.reorderDelayMax",
            std::uint64_t(f.reorderDelayMax));
    c.field("faults.duplicateProb", f.duplicateProb);
    c.field("faults.duplicateDelay",
            std::uint64_t(f.duplicateDelay));
    c.field("faults.dropEveryN", std::uint64_t(f.dropEveryN));
    c.field("faults.numCrashes", std::uint64_t(f.crashes.size()));
    for (std::size_t i = 0; i < f.crashes.size(); ++i) {
        const CrashFault &cf = f.crashes[i];
        std::string p = "faults.crash" + std::to_string(i) + ".";
        c.field((p + "node").c_str(), std::uint64_t(cf.node));
        c.field((p + "atTick").c_str(), std::uint64_t(cf.atTick));
        c.field((p + "loseDirectory").c_str(), cf.loseDirectory);
        c.field((p + "permanent").c_str(), cf.permanent);
    }
    c.field("faults.numFlips", std::uint64_t(f.flips.size()));
    for (std::size_t i = 0; i < f.flips.size(); ++i) {
        const FlipFault &ff = f.flips[i];
        std::string p = "faults.flip" + std::to_string(i) + ".";
        const char *dom = ff.domain == FlipDomain::Message
                              ? "message"
                              : ff.domain == FlipDomain::Directory
                                    ? "directory"
                                    : "cache";
        c.field((p + "domain").c_str(), dom);
        c.field((p + "node").c_str(), std::uint64_t(ff.node));
        c.field((p + "atTick").c_str(), std::uint64_t(ff.atTick));
        c.field((p + "bits").c_str(), std::uint64_t(ff.bits));
        c.field((p + "seed").c_str(), std::uint64_t(ff.seed));
        c.field((p + "preferClean").c_str(), ff.preferClean);
    }

    return out;
}

std::string
canonicalWorkload(const std::string &app, const WorkloadParams &wp)
{
    std::string out;
    out.reserve(256);
    Canon c(out);
    c.field("workload.app", app.c_str());
    c.field("workload.numThreads", std::uint64_t(wp.numThreads));
    c.field("workload.scale", wp.scale);
    c.field("workload.dataFactor", wp.dataFactor);
    c.field("workload.lineBytes", std::uint64_t(wp.lineBytes));
    c.field("workload.heapBase", std::uint64_t(wp.heapBase));
    c.field("workload.seed", std::uint64_t(wp.seed));
    return out;
}

PointKey
makePointKey(const MachineConfig &cfg, const std::string &app,
             const WorkloadParams &wp, bool replay)
{
    PointKey k;
    k.canonical = canonicalWorkload(app, wp);
    // Trace replay changes Cholesky's schedule (DESIGN.md §19), so a
    // run with replay off is another simulation. The row appears only
    // then, so replayed keys and the files persisted under them keep
    // their hash.
    if (!replay)
        Canon(k.canonical).field("workload.replay", false);
    k.canonical += canonicalMachineConfig(cfg);
    k.hash = hash64(k.canonical);
    return k;
}

} // namespace serve
} // namespace ccnuma
