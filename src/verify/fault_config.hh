/**
 * @file
 * Fault-injection configuration.
 *
 * Each knob arms one fault kind; all are off by default. Delay jitter
 * and engine stalls are *benign*: they perturb timing while
 * preserving every ordering property the protocol relies on, so any
 * run must survive them transparently. Reordering, duplication, and
 * drops are *corrupting*: they violate the network's per-pair FIFO /
 * exactly-once delivery contract and exist to prove the invariant
 * checker (and the hang watchdog) actually catch such violations.
 */

#ifndef CCNUMA_VERIFY_FAULT_CONFIG_HH
#define CCNUMA_VERIFY_FAULT_CONFIG_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace ccnuma
{

/**
 * One seeded fail-stop fault against a coherence controller.
 * At @c atTick every in-flight handler, dispatch queue entry and
 * transient protocol map on the node's controller is dropped on the
 * floor, and with @c loseDirectory the directory SRAM contents too.
 * The node's processor caches, snooping bus and network interface
 * survive: the fault models a controller card fail-stop, not a node
 * power cut.
 */
struct CrashFault
{
    /** Node whose coherence controller fail-stops. */
    NodeId node = 0;

    /** Tick at which the controller dies. */
    Tick atTick = 0;

    /**
     * Lose the directory SRAM contents too: on restart the home
     * enters a RECOVERING epoch and rebuilds the full map from
     * DirProbe responses before serving requests again.
     */
    bool loseDirectory = false;

    /**
     * The controller never restarts. The timeout ladder at the
     * requesting cache units escalates to degraded mode: the dead
     * home is fenced off and its pages are remapped to a successor.
     */
    bool permanent = false;
};

/** Where a seeded bit flip lands (PR 7 integrity faults). */
enum class FlipDomain : std::uint8_t
{
    Message,   ///< a transport frame in flight from @c node
    Directory, ///< a directory entry at rest on @c node
    Cache,     ///< a cache line at rest on @c node
};

/**
 * One scheduled bit-flip fault: at @c atTick, flip @c bits bits of one
 * ECC-protected word (or one in-flight frame) in @c domain on
 * @c node. A single flip models a correctable error (CE) the SECDED
 * code repairs at the next access or scrub; a double flip models an
 * uncorrectable error (UE) that must be detected and contained or
 * escalated. Both flips of a UE land in the same protected word, as
 * the SECDED fault model requires.
 */
struct FlipFault
{
    FlipDomain domain = FlipDomain::Message;
    NodeId node = 0;
    Tick atTick = 1;
    /** Bits to flip in the victim word/frame: 1 (CE) or 2 (UE). */
    unsigned bits = 1;
    /** Private seed for victim/bit selection. */
    std::uint64_t seed = 1;
    /**
     * Cache-domain UEs only: restrict victim selection to clean
     * (non-Modified) lines so containment is a silent discard and no
     * processor has to die. Campaigns keep this on; the poisoning
     * tests turn it off to exercise the line-death path.
     */
    bool preferClean = true;
};

/** Seeded fault-injection knobs (see file comment). */
struct FaultConfig
{
    /** Seed for the injector's private RNG. */
    std::uint64_t seed = 1;

    // --- benign faults (must be survived transparently) ---

    /** Probability a message's delivery is delayed. */
    double delayJitterProb = 0.0;
    /** Maximum extra delivery delay (ticks, uniform in [0, max]). */
    Tick delayJitterMax = 0;
    /** Probability an engine dispatch attempt stalls. */
    double engineStallProb = 0.0;
    /** Maximum injected engine stall (ticks, uniform in [1, max]). */
    Tick engineStallMax = 0;

    // --- corrupting faults (must be *detected* by the checker) ---

    /**
     * Probability a message is held back without the per-pair FIFO
     * clamp, letting later messages of the same pair overtake it.
     */
    double reorderProb = 0.0;
    /** Maximum hold-back applied to a reordered message (ticks). */
    Tick reorderDelayMax = 0;
    /** Probability a message is delivered a second time. */
    double duplicateProb = 0.0;
    /** Delay of the duplicate after the original delivery (ticks). */
    Tick duplicateDelay = 64;
    /** Drop every Nth message (0 disables). */
    unsigned dropEveryN = 0;

    // --- fail-stop faults (healed by the recovery subsystem) ---

    /**
     * Scheduled coherence-controller crashes. Unlike the knobs above
     * these are not probabilistic: each entry fail-stops one named
     * controller at one tick, which keeps campaign points exactly
     * reproducible. Requires FaultTolerance::Recovery or above
     * (validate() enforces it).
     */
    std::vector<CrashFault> crashes;

    /**
     * Scheduled silent-data-corruption bit flips (PR 7). Like
     * crashes, each entry is a deterministic single fault event:
     * at one tick it flips 1 or 2 bits of one protected word in one
     * domain. Requires FaultTolerance::Integrity (validate()
     * enforces it);
     * the defenses (CRC, SECDED ECC, scrubbing, line poisoning) must
     * leave zero escaped corruptions.
     */
    std::vector<FlipFault> flips;

    bool
    anyEnabled() const
    {
        return delayJitterProb > 0.0 || engineStallProb > 0.0 ||
               corrupting() || !crashes.empty() || !flips.empty();
    }

    /** True when any fault that breaks protocol guarantees is armed. */
    bool
    corrupting() const
    {
        return reorderProb > 0.0 || duplicateProb > 0.0 ||
               dropEveryN != 0;
    }
};

} // namespace ccnuma

#endif // CCNUMA_VERIFY_FAULT_CONFIG_HH
