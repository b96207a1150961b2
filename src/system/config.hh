/**
 * @file
 * Whole-machine configuration, with named presets for the paper's
 * experimental configurations.
 */

#ifndef CCNUMA_SYSTEM_CONFIG_HH
#define CCNUMA_SYSTEM_CONFIG_HH

#include <string>

#include "net/network.hh"
#include "node/smp_node.hh"
#include "obs/obs_config.hh"
#include "sim/fault_tolerance.hh"
#include "verify/verify_config.hh"

namespace ccnuma
{

/** The four coherence controller architectures under study. */
enum class Arch
{
    HWC,    ///< one custom-hardware FSM
    PPC,    ///< one commodity protocol processor
    TwoHWC, ///< two FSMs (LPE/RPE)
    TwoPPC, ///< two protocol processors (LPE/RPE)
};

const char *archName(Arch a);

/** Full machine configuration. */
struct MachineConfig
{
    unsigned numNodes = 16;
    NodeParams node;
    NetworkParams net;
    unsigned pageBytes = 4096;
    /**
     * Page placement: the paper's round-robin default, or the
     * first-touch-after-initialization policy it reports as slightly
     * inferior (load imbalance, memory/controller contention).
     */
    PlacementPolicy placement = PlacementPolicy::RoundRobin;
    Addr syncBase = 0x4000'0000;
    /**
     * Barrier/lock grant hand-off latency (ticks) of the deferred
     * grant path: in a sharded run, or a serial one with
     * forceSyncDefer, every sync grant reaches its processor this
     * long after the triggering operation, modeling the
     * flag-propagation delay of a real flag-based barrier. A default
     * serial run wakes waiters with zero delay and ignores it. Also
     * the ceiling of the sharded scheduler's lookahead window, so it
     * must stay at or below the network's minimum latency for
     * sharding to pay off.
     */
    Tick syncHandoffTicks = 16;
    /**
     * Event-queue shards for intra-machine parallel simulation
     * (PR 5). 1 = the classic serial scheduler; k > 1 partitions the
     * nodes over k queues advanced in adaptive windows, with results
     * bit-identical to the serial run with forceSyncDefer (sharded
     * runs always defer sync grants). Only the clean machine shards:
     * arming any checker, watchdog, tracer, fault, a fault-tolerance
     * level above None or first-touch placement takes the counted
     * serial fallback of lookahead(). numNodes
     * must divide evenly. The CCNUMA_SHARDS environment variable
     * overrides without a config change.
     */
    unsigned shards = 1;
    /**
     * Force the deferred (sharded-style) sync grant path in serial
     * runs, so a serial run can serve as a bit-identity oracle for
     * the sharded modes. CCNUMA_SYNC_DEFER overrides. Normal serial
     * runs keep the seed's zero-delay wakes.
     */
    bool forceSyncDefer = false;
    /** Simulation watchdog: abort if a run exceeds this many ticks. */
    Tick maxTicks = 4'000'000'000ull;
    /**
     * Verification subsystem (invariant checker, fault injector,
     * hang watchdog); everything off by default. The CCNUMA_VERIFY
     * environment variable (checker|watchdog|all|1) force-enables
     * the checker and/or watchdog without a config change.
     */
    VerifyConfig verify;

    /**
     * Fault handling layered around the protocol (DESIGN.md §12,
     * §16, §17); the levels nest. None, the default, is the paper's
     * machine, so paper-fidelity timing is unchanged. Transport adds
     * the reliable transport and bounds the NACK retry
     * (RetryTracker); Recovery adds miss timers, controller restart
     * and directory rebuild; Integrity adds CRC frames, ECC
     * scrubbing and line poisoning. Crash faults
     * (verify.faults.crashes) need Recovery and bit flips
     * (verify.faults.flips) need Integrity; validate() rejects them
     * otherwise. The builders below and the CCNUMA_RELIABLE,
     * CCNUMA_RECOVERY and CCNUMA_INTEGRITY environment variables
     * raise the level and never lower it.
     */
    FaultTolerance faultTolerance = FaultTolerance::None;

    /**
     * Observability subsystem (per-request tracing, occupancy
     * timelines, Chrome-trace and metrics export); off by default so
     * paper-fidelity timing and output are untouched. The
     * CCNUMA_TRACE environment variable (1|on) force-enables it
     * without a config change; see obs/obs_config.hh for the
     * companion CCNUMA_TRACE_* tuning knobs.
     */
    ObsConfig obs;

    /**
     * The paper's base system: 16 nodes x 4 x 200 MHz processors,
     * 128-byte lines, 100 MHz 16-byte bus, 70 ns network.
     */
    static MachineConfig base();

    /**
     * Raise faultTolerance to at least Transport: the reliable
     * transport sublayer, and the controllers switch from the paper's
     * immediate unbounded NACK retry to a capped-exponential-backoff
     * bounded policy (escalating to a FatalError diagnostic instead
     * of livelocking).
     */
    MachineConfig &withReliableTransport();

    /**
     * Raise faultTolerance to at least Recovery: fail-stop crash
     * recovery on top of the reliable transport, which a crashed
     * controller relies on to re-deliver what its fenced receive
     * side dropped.
     */
    MachineConfig &withCrashRecovery();

    /**
     * Raise faultTolerance to Integrity: per-frame CRC-32 on the
     * reliable transport (a corrupted frame is discarded as a loss
     * and re-delivered by retransmission), SECDED ECC + scrubbing on
     * directories and caches, and line poisoning. A directory UE
     * escalates through crash recovery, which this level includes.
     */
    MachineConfig &withIntegrity();

    /**
     * Apply the CCNUMA_* environment overrides (README, "Environment
     * knobs"): the fault-tolerance level (raised only), shard
     * count, tick limit, sync deferral, verification and tracing.
     * Machine's constructor resolves its config through this, and so
     * does the result-cache key, so a cached result is always keyed
     * by the simulation that produced it.
     */
    MachineConfig &withEnvOverrides();

    /**
     * Sanity-check the configuration, raising FatalError with an
     * actionable message on nonsense (zero nodes, non-power-of-two
     * line/page sizes, zero port width/cycle, ...). Machine's
     * constructor calls this before building anything.
     */
    void validate() const;

    /**
     * The sharded scheduler's lookahead window in ticks: no shard may
     * outrun another by more than the earliest possible cross-node
     * interaction, the network's minimum send-to-arrival gap (one
     * egress port cycle, the switch flight, one ingress port cycle)
     * or a sync grant hand-off, whichever is smaller. 0 when the config
     * runs serially: shards == 1, or a serial fallback applies, and
     * then @p fallback (if given) receives its reason. Only the clean
     * paper machine shards; every armed verification, observability
     * or fault-handling subsystem falls back. A pure function of the
     * config, shared by Machine's scheduler choice and the
     * result-cache key.
     */
    Tick lookahead(const char **fallback = nullptr) const;

    /** Apply a coherence controller architecture. */
    MachineConfig &withArch(Arch a);

    /** Use @p bytes cache lines (Figure 7 uses 32). */
    MachineConfig &withLineBytes(unsigned bytes);

    /** Use a slow network (Figure 8 uses 1 us = 200 ticks). */
    MachineConfig &withNetworkLatency(Tick ticks);

    /**
     * Keep 64 processors total but change processors per node
     * (Figure 10: 1, 2, 4, 8).
     */
    MachineConfig &withProcsPerNode(unsigned ppn,
                                    unsigned total_procs = 64);

    unsigned totalProcs() const
    {
        return numNodes * node.procsPerNode;
    }
};

} // namespace ccnuma

#endif // CCNUMA_SYSTEM_CONFIG_HH
