#include "system/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "obs/ring.hh"
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
    reliable.enabled = true;
    // Bounded protocol retry: first re-attempt after 32 ticks,
    // doubling up to 8192, giving up (with a diagnostic) after 64
    // tries. 64 doublings capped at 8K ticks is far beyond any
    // transient condition the protocol can produce, so escalation
    // only fires on genuine livelock.
    node.cc.retry.backoffBase = 32;
    node.cc.retry.backoffMax = 8192;
    node.cc.retry.maxRetries = 64;
    return *this;
}

MachineConfig &
MachineConfig::withCrashRecovery()
{
    recovery.enabled = true;
    // A crashed controller drops undelivered frames on the floor and
    // relies on sender retransmission to replay them after restart.
    return withReliableTransport();
}

MachineConfig &
MachineConfig::withIntegrity()
{
    integrity.enabled = true;
    // Corruption-as-loss needs the CRC check on every frame, and a
    // directory UE escalates through the crash-recovery machinery.
    reliable.crc = true;
    return withCrashRecovery();
}

namespace
{

bool
isPow2(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * Override @p value from environment knob @p name when it holds a
 * positive decimal integer; anything else is warned about and leaves
 * @p value unchanged.
 */
template <typename T>
void
envPositive(const char *name, T &value)
{
    const char *env = std::getenv(name);
    if (!env)
        return;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (std::isdigit(static_cast<unsigned char>(env[0])) &&
        *end == '\0' && errno == 0 && v >= 1 &&
        v <= std::numeric_limits<T>::max()) {
        value = static_cast<T>(v);
        return;
    }
    warn("%s=%s not recognized (use a positive integer); keeping %llu",
         name, env, static_cast<unsigned long long>(value));
}

/**
 * Read on/off environment knob @p name: 1|on is true, 0|off false.
 * Anything else is warned about and, like an unset knob, yields
 * @p value.
 */
bool
envSwitch(const char *name, bool value)
{
    const char *env = std::getenv(name);
    if (!env)
        return value;
    if (!std::strcmp(env, "1") || !std::strcmp(env, "on"))
        return true;
    if (!std::strcmp(env, "0") || !std::strcmp(env, "off"))
        return false;
    warn("%s=%s not recognized (use 1|on|0|off); keeping %s", name, env,
         value ? "on" : "off");
    return value;
}

} // namespace

MachineConfig &
MachineConfig::withEnvOverrides()
{
    // CCNUMA_RELIABLE force-enables end-to-end message recovery
    // (transport + bounded NACK retry), CCNUMA_RECOVERY the fail-stop
    // crash-recovery subsystem (implying the reliable transport) and
    // CCNUMA_INTEGRITY the data-integrity subsystem (frame CRC, ECC
    // scrubbing, line poisoning — implying both).
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
        if (!std::strcmp(env, "1") || !std::strcmp(env, "checker") ||
            !std::strcmp(env, "all")) {
            verify.checker = true;
        }
        if (!std::strcmp(env, "watchdog") || !std::strcmp(env, "all"))
            verify.watchdog = true;
        if (!verify.checker && !verify.watchdog) {
            warn("CCNUMA_VERIFY=%s not recognized (use "
                 "checker|watchdog|all|1); verification stays off",
                 env);
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
    } else if (reliable.enabled || recovery.enabled ||
               integrity.enabled) {
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
    if (reliable.enabled) {
        if (reliable.retransmitTimeout == 0)
            fatal("config: reliable transport enabled with a zero "
                  "retransmit timeout; every frame would retransmit "
                  "instantly");
        if (reliable.retransmitTimeoutMax < reliable.retransmitTimeout)
            fatal("config: reliable transport retransmit timeout cap "
                  "%llu is below the base timeout %llu",
                  static_cast<unsigned long long>(
                      reliable.retransmitTimeoutMax),
                  static_cast<unsigned long long>(
                      reliable.retransmitTimeout));
        if (reliable.reorderBufCap == 0)
            fatal("config: reliable transport reorder buffer capacity "
                  "is zero; no out-of-order frame could ever be held");
    }
    if (node.cc.retry.backoffBase != 0 &&
        node.cc.retry.backoffMax != 0 &&
        node.cc.retry.backoffMax < node.cc.retry.backoffBase) {
        fatal("config: retry backoff cap %llu is below the base "
              "delay %llu",
              static_cast<unsigned long long>(node.cc.retry.backoffMax),
              static_cast<unsigned long long>(
                  node.cc.retry.backoffBase));
    }
    if (!verify.faults.crashes.empty()) {
        if (!recovery.enabled)
            fatal("config: crash faults are listed but recovery is "
                  "disabled; call withCrashRecovery() (or set "
                  "CCNUMA_RECOVERY=1) so the machine can survive "
                  "them");
        if (!reliable.enabled)
            fatal("config: crash faults require the reliable "
                  "transport: a crashed controller fences its "
                  "receive side and depends on sender retransmission "
                  "to re-deliver dropped frames; use "
                  "withCrashRecovery() which enables both");
        for (const CrashFault &c : verify.faults.crashes) {
            if (c.node >= numNodes)
                fatal("config: crash fault targets node %u but the "
                      "machine has only %u nodes",
                      c.node, numNodes);
        }
    }
    if (integrity.enabled) {
        if (!reliable.enabled || !reliable.crc)
            fatal("config: integrity is enabled but the reliable "
                  "transport's CRC check is not; a corrupted frame "
                  "could only be detected as a loss, so use "
                  "withIntegrity() (or CCNUMA_INTEGRITY=1) which "
                  "enables both");
        if (integrity.scrubIntervalTicks == 0)
            fatal("config: integrity.scrubIntervalTicks is zero; a "
                  "latent correctable error would never be scrubbed");
    }
    if (!verify.faults.flips.empty()) {
        if (!integrity.enabled)
            fatal("config: bit-flip faults are listed but the "
                  "integrity subsystem is disabled; an injected flip "
                  "would be a guaranteed silent corruption, so call "
                  "withIntegrity() (or set CCNUMA_INTEGRITY=1) "
                  "first");
        for (const FlipFault &f : verify.faults.flips) {
            if (f.node >= numNodes)
                fatal("config: flip fault targets node %u but the "
                      "machine has only %u nodes",
                      f.node, numNodes);
            if (f.bits != 1 && f.bits != 2)
                fatal("config: flip fault flips %u bits; the SECDED "
                      "fault model covers 1 (correctable) or 2 "
                      "(uncorrectable)",
                      f.bits);
            if (f.bits == 2 && f.domain != FlipDomain::Message &&
                !recovery.enabled)
                fatal("config: an uncorrectable directory or cache "
                      "flip escalates through the crash-recovery "
                      "subsystem, which is disabled; use "
                      "withIntegrity() which enables it");
        }
    }
    if (recovery.enabled) {
        if (recovery.repairTicks == 0)
            fatal("config: recovery.repairTicks is zero; a crashed "
                  "controller would restart in the same tick it "
                  "died, making the crash a no-op");
        if (recovery.missTimeoutTicks != 0 && reliable.enabled &&
            recovery.missTimeoutTicks <= reliable.retransmitTimeoutMax)
            fatal("config: recovery.missTimeoutTicks %llu must exceed "
                  "the reliable transport's maximum retransmission "
                  "timeout %llu, or a slow-but-healthy home would be "
                  "escalated as dead while the transport is still "
                  "retrying",
                  static_cast<unsigned long long>(
                      recovery.missTimeoutTicks),
                  static_cast<unsigned long long>(
                      reliable.retransmitTimeoutMax));
        if (recovery.probeFanout > numNodes - 1)
            fatal("config: recovery.probeFanout %u exceeds the %u "
                  "peer nodes a recovering home could probe; use 0 "
                  "to probe all peers at once",
                  recovery.probeFanout, numNodes - 1);
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
