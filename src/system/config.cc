#include "system/config.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "obs/ring.hh"
#include "sim/env.hh"
#include "sim/logging.hh"

namespace ccnuma
{

const char *
archName(Arch a)
{
    switch (a) {
      case Arch::HWC: return "HWC";
      case Arch::PPC: return "PPC";
      case Arch::TwoHWC: return "2HWC";
      case Arch::TwoPPC: return "2PPC";
    }
    return "?";
}

MachineConfig
MachineConfig::base()
{
    MachineConfig c;
    c.numNodes = 16;
    c.node.procsPerNode = 4;
    // Table 1 defaults are encoded in the substructures' field
    // initializers (bus, memory, network, directory, caches).
    return c;
}

MachineConfig &
MachineConfig::withReliableTransport()
{
    faultTolerance = std::max(faultTolerance, FaultTolerance::Transport);
    return *this;
}

MachineConfig &
MachineConfig::withCrashRecovery()
{
    faultTolerance = std::max(faultTolerance, FaultTolerance::Recovery);
    return *this;
}

MachineConfig &
MachineConfig::withIntegrity()
{
    faultTolerance = std::max(faultTolerance, FaultTolerance::Integrity);
    return *this;
}

namespace
{

bool
isPow2(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

MachineConfig &
MachineConfig::withEnvOverrides()
{
    // CCNUMA_RELIABLE, CCNUMA_RECOVERY and CCNUMA_INTEGRITY raise
    // the fault-tolerance level; off (or unset) leaves it as built.
    if (envSwitch("CCNUMA_RELIABLE", false))
        withReliableTransport();
    if (envSwitch("CCNUMA_RECOVERY", false))
        withCrashRecovery();
    if (envSwitch("CCNUMA_INTEGRITY", false))
        withIntegrity();
    envPositive("CCNUMA_SHARDS", shards);
    envPositive("CCNUMA_MAX_TICKS", maxTicks);
    // CCNUMA_SYNC_DEFER forces the deferred (sharded-style) sync
    // grant path in serial runs, making a serial run a bit-identity
    // oracle for the sharded modes.
    forceSyncDefer = envSwitch("CCNUMA_SYNC_DEFER", forceSyncDefer);
    if (const char *env = std::getenv("CCNUMA_VERIFY")) {
        const bool all = !std::strcmp(env, "all");
        const bool checker = all || !std::strcmp(env, "1") ||
                             !std::strcmp(env, "checker");
        const bool watchdog = all || !std::strcmp(env, "watchdog");
        if (checker)
            verify.checker = true;
        if (watchdog)
            verify.watchdog = true;
        // Judged on the value alone: a typo is reported even when the
        // config already turned a verifier on.
        if (!checker && !watchdog) {
            warn("CCNUMA_VERIFY=%s not recognized (use "
                 "checker|watchdog|all|1); keeping checker %s, "
                 "watchdog %s",
                 env, verify.checker ? "on" : "off",
                 verify.watchdog ? "on" : "off");
        }
    }
    if (envSwitch("CCNUMA_TRACE", false))
        obs.enabled = true;
    if (obs.enabled) {
        if (const char *env = std::getenv("CCNUMA_TRACE_FILE"))
            obs.chromeTraceFile = env;
        if (const char *env = std::getenv("CCNUMA_TRACE_METRICS"))
            obs.metricsFile = env;
        envPositive("CCNUMA_TRACE_SAMPLE", obs.sampleEvery);
        envPositive("CCNUMA_TRACE_RING", obs.ringCapacity);
    }
    return *this;
}

Tick
MachineConfig::lookahead(const char **fallback) const
{
    if (fallback)
        *fallback = nullptr;
    if (shards <= 1)
        return 0;
    const Tick w = std::min(2 * net.portCycle + net.flightLatency,
                            syncHandoffTicks);
    // Only the clean paper machine shards (DESIGN.md §15): every
    // armed verification, observability or fault-handling subsystem
    // keeps machine-wide state and runs on the serial scheduler. The
    // first match names the fallback.
    const char *why = nullptr;
    if (verify.checker) {
        why = "the coherence invariant checker reads global machine "
              "state at every delivery";
    } else if (placement == PlacementPolicy::FirstTouch) {
        why = "first-touch placement resolves page homes at miss "
              "time, a cross-shard race";
    } else if (!verify.faults.crashes.empty()) {
        why = "crash recovery mutates cross-node state (receive "
              "fences, directory rebuilds, page remaps) synchronously "
              "at the crash and repair events";
    } else if (!verify.faults.flips.empty()) {
        why = "integrity fault injection mutates cross-node state (ECC "
              "words, line poisoning, processor kills) synchronously "
              "at each flip event";
    } else if (w == 0) {
        why = "the lookahead window is empty (a zero sync hand-off "
              "leaves no safe slack)";
    } else if (verify.watchdog) {
        why = "the hang watchdog schedules its progress checks on one "
              "event queue";
    } else if (obs.enabled) {
        why = "the tracer records the whole machine into one "
              "instance";
    } else if (verify.faults.anyEnabled()) {
        why = "fault injection is a verification run, and "
              "verification runs on the serial scheduler";
    } else if (faultTolerance != FaultTolerance::None) {
        why = "the reliable transport, crash recovery and integrity "
              "keep their timers and fences on one event queue";
    }
    if (fallback)
        *fallback = why;
    return why ? 0 : w;
}

void
MachineConfig::validate() const
{
    if (numNodes == 0)
        fatal("config: numNodes is zero; a machine needs at least "
              "one node");
    if (node.procsPerNode == 0)
        fatal("config: procsPerNode is zero; each SMP node needs at "
              "least one processor");
    if (!isPow2(node.lineBytes))
        fatal("config: cache line size %u is not a power of two",
              node.lineBytes);
    if (!isPow2(pageBytes))
        fatal("config: page size %u is not a power of two",
              pageBytes);
    if (pageBytes < node.lineBytes)
        fatal("config: page size %u is smaller than the %u-byte "
              "cache line",
              pageBytes, node.lineBytes);
    if (net.portWidthBytes == 0)
        fatal("config: network port width is zero bytes; nothing "
              "could ever be transferred");
    if (net.portCycle == 0)
        fatal("config: network port cycle is zero ticks");
    if (maxTicks == 0)
        fatal("config: maxTicks is zero; the watchdog would abort "
              "every run immediately");
    if (shards == 0)
        fatal("config: shards is zero; use 1 for the serial "
              "scheduler");
    if (numNodes % shards != 0)
        fatal("config: %u nodes cannot be split evenly over %u "
              "shards",
              numNodes, shards);
    if (obs.enabled && obs.ringCapacity > obs::EventRing::maxCapacity)
        fatal("config: trace ring capacity %zu cannot be rounded up to "
              "a power of two (at most %zu)",
              obs.ringCapacity, obs::EventRing::maxCapacity);
    if (!verify.faults.crashes.empty() &&
        faultTolerance < FaultTolerance::Recovery)
        fatal("config: crash faults are listed but crash recovery is "
              "off; call withCrashRecovery() (or set CCNUMA_RECOVERY=1) "
              "so the machine can survive them");
    for (const CrashFault &c : verify.faults.crashes) {
        if (c.node >= numNodes)
            fatal("config: crash fault targets node %u but the machine "
                  "has only %u nodes",
                  c.node, numNodes);
    }
    if (!verify.faults.flips.empty() &&
        faultTolerance < FaultTolerance::Integrity)
        fatal("config: bit-flip faults are listed but the integrity "
              "subsystem is off; an injected flip would be a "
              "guaranteed silent corruption, so call withIntegrity() "
              "(or set CCNUMA_INTEGRITY=1) first");
    for (const FlipFault &f : verify.faults.flips) {
        if (f.node >= numNodes)
            fatal("config: flip fault targets node %u but the machine "
                  "has only %u nodes",
                  f.node, numNodes);
        if (f.bits != 1 && f.bits != 2)
            fatal("config: flip fault flips %u bits; the SECDED fault "
                  "model covers 1 (correctable) or 2 (uncorrectable)",
                  f.bits);
    }
}

MachineConfig &
MachineConfig::withArch(Arch a)
{
    switch (a) {
      case Arch::HWC:
        node.cc.engineType = EngineType::HWC;
        node.cc.numEngines = 1;
        break;
      case Arch::PPC:
        node.cc.engineType = EngineType::PP;
        node.cc.numEngines = 1;
        break;
      case Arch::TwoHWC:
        node.cc.engineType = EngineType::HWC;
        node.cc.numEngines = 2;
        break;
      case Arch::TwoPPC:
        node.cc.engineType = EngineType::PP;
        node.cc.numEngines = 2;
        break;
    }
    return *this;
}

MachineConfig &
MachineConfig::withLineBytes(unsigned bytes)
{
    node.lineBytes = bytes;
    return *this;
}

MachineConfig &
MachineConfig::withNetworkLatency(Tick ticks)
{
    net.flightLatency = ticks;
    return *this;
}

MachineConfig &
MachineConfig::withProcsPerNode(unsigned ppn, unsigned total_procs)
{
    if (ppn == 0 || total_procs % ppn != 0)
        fatal("cannot split %u processors into nodes of %u",
              total_procs, ppn);
    node.procsPerNode = ppn;
    numNodes = total_procs / ppn;
    return *this;
}

} // namespace ccnuma
