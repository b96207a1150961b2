/**
 * @file
 * Silent-data-corruption orchestration (PR 7).
 *
 * The IntegrityManager turns the FlipFault list in the fault config
 * into scheduled corruption events against the live machine and
 * drives the defense that answers each one:
 *
 *  - a *message* flip arms the fault injector's transport hook: the
 *    node's next outgoing frame is corrupted in flight, the
 *    receiver's CRC-32 check discards it as a loss, and go-back-N
 *    retransmission re-delivers a pristine copy;
 *  - a *directory* or *cache* single-bit flip (CE) corrupts one live
 *    SECDED word in place; the store's access path corrects it before
 *    any observation, and the manager schedules a one-shot background
 *    scrub pass at the next scrub-interval boundary to repair it even
 *    if nothing ever touches the word;
 *  - a *directory* double-bit flip (UE) loses the entry: the manager
 *    escalates by fail-stopping the home controller with its
 *    directory (PR 6 machinery), whose restart rebuilds the full map
 *    from the surviving caches;
 *  - a *cache* double-bit flip (UE) on a clean line is contained by
 *    silently discarding the copy (indistinguishable from a clean
 *    eviction); on a Modified line the data is gone for good, so the
 *    home poisons the line (PoisonNack fences every future requester)
 *    and only the owning processor is killed.
 *
 * The accounting ledger must close: every applied corruption is
 * detected, corrected, contained, or escalated — never silently
 * consumed. The corruption-campaign bench asserts zero escapes.
 */

#ifndef CCNUMA_VERIFY_INTEGRITY_MANAGER_HH
#define CCNUMA_VERIFY_INTEGRITY_MANAGER_HH

#include <cstdint>
#include <vector>

#include "node/smp_node.hh"
#include "sim/event_queue.hh"
#include "verify/fault_config.hh"

namespace ccnuma
{

class FaultInjector;

namespace obs
{
class Tracer;
} // namespace obs

/** Flip scheduling + containment policy (see file comment). */
class IntegrityManager
{
  public:
    /**
     * Background scrub period (ticks). A latent single-bit error
     * injected at tick T is repaired no later than the next multiple
     * of this interval, sooner if an access touches the word first.
     */
    static constexpr Tick scrubIntervalTicks = 10'000;

    /**
     * @param injector source of the FlipFault list (may be null:
     *        defenses armed but no faults scheduled)
     */
    IntegrityManager(EventQueue &eq, AddressMap &map,
                     std::vector<SmpNode *> nodes,
                     FaultInjector *injector);

    /** Schedule every configured flip. */
    void arm();

    /** Record lifecycle events with the tracer (null = off). */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    /**
     * Run one scrub pass over every directory and cache now,
     * resolving any still-latent corrections. Called by the machine
     * after the end-of-run drain so the ledger closes even when a
     * flip lands after the last access and the last periodic pass.
     */
    void finalScrub();

    /** The machine's poison fence reports each processor it kills. */
    void notePoisonKill() { ++procsKilled_; }

    // --- ledger counters (RunResult / bench / tests) ---

    /** Flip events that landed on a victim (directory + cache). */
    std::uint64_t flipsApplied() const { return flipsApplied_; }
    /**
     * Message flips armed on the transport hook. The applied count
     * for this domain is the injector's framesCorrupted(); an arm
     * that never met a frame is a skip.
     */
    std::uint64_t messageFlipsArmed() const
    {
        return messageFlipsArmed_;
    }
    /** Flip events skipped because no victim existed. */
    std::uint64_t flipsSkipped() const { return flipsSkipped_; }
    /** Corrections applied by scheduled scrub passes. */
    std::uint64_t scrubCorrections() const
    {
        return scrubCorrections_;
    }
    /** Clean-line UEs contained by silent discard. */
    std::uint64_t containedDiscards() const
    {
        return containedDiscards_;
    }
    /** Dirty-line UEs contained by line poisoning. */
    std::uint64_t linesDead() const { return linesDead_; }
    /** Processors killed by the poison fence. */
    std::uint64_t procsKilled() const { return procsKilled_; }
    /** Directory UEs escalated to a crash-and-rebuild. */
    std::uint64_t escalations() const { return escalations_; }

  private:
    void fireFlip(const FlipFault &f);
    void fireDirectoryFlip(const FlipFault &f);
    void fireCacheFlip(const FlipFault &f);
    /** Schedule a one-shot scrub at the next interval boundary. */
    void scheduleScrub();
    void scrubPass();
    /** All-quiet test before mutating a line's only copy. */
    bool lineQuietEverywhere(Addr line) const;

    EventQueue &eq_;
    AddressMap &map_;
    std::vector<SmpNode *> nodes_;
    FaultInjector *injector_;
    obs::Tracer *tracer_ = nullptr;
    bool scrubScheduled_ = false;

    std::uint64_t flipsApplied_ = 0;
    std::uint64_t messageFlipsArmed_ = 0;
    std::uint64_t flipsSkipped_ = 0;
    std::uint64_t scrubCorrections_ = 0;
    std::uint64_t containedDiscards_ = 0;
    std::uint64_t linesDead_ = 0;
    std::uint64_t procsKilled_ = 0;
    std::uint64_t escalations_ = 0;
};

} // namespace ccnuma

#endif // CCNUMA_VERIFY_INTEGRITY_MANAGER_HH
