/**
 * @file
 * Per-processor two-level cache hierarchy and its bus-side logic.
 *
 * Each compute processor owns an L1 (small, clean subset of L2) and a
 * snooping L2 that participates in the node's MESI protocol. The unit
 * has a single MSHR (the modeled processors are in-order and blocking)
 * and a small writeback buffer that keeps evicted dirty lines
 * snoopable until their writeback data has moved on the bus.
 */

#ifndef CCNUMA_NODE_CACHE_UNIT_HH
#define CCNUMA_NODE_CACHE_UNIT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "bus/bus.hh"
#include "mem/address_map.hh"
#include "mem/cache.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace ccnuma
{

/** Cache hierarchy parameters. */
struct CacheUnitParams
{
    std::uint64_t l1Bytes = 16 * 1024;
    unsigned l1Assoc = 4;
    std::uint64_t l2Bytes = 1024 * 1024;
    unsigned l2Assoc = 4;
    Tick l1HitLatency = 1;
    Tick l2HitLatency = 8;
    /** Extra ticks after the critical beat before restart. */
    Tick fillRestart = 4;
};

/**
 * One processor's L1+L2 with bus attachment. Timing for hits is
 * returned synchronously; misses go through the split-transaction
 * bus and complete via callback.
 */
class CacheUnit : public BusAgent
{
  public:
    CacheUnit(const std::string &name, EventQueue &eq, Bus &bus,
              AddressMap &map, NodeId node,
              const CacheUnitParams &p,
              std::function<std::uint64_t()> next_version);

    /** Result of a synchronous cache access attempt. */
    struct AccessResult
    {
        bool hit = false;
        Tick latency = 0;
        std::uint64_t version = 0; ///< data version observed
    };

    /**
     * Attempt @p addr; on a hit the access completes in
     * result.latency ticks. On a miss the caller must follow up with
     * startMiss().
     */
    AccessResult access(Addr addr, bool write);

    /**
     * Begin servicing a miss (one outstanding at a time). When the
     * fill's critical beat arrives, @p on_restart is invoked with the
     * tick at which the processor may restart and the version of the
     * data it consumed. It is stored inline (RestartFn), and must not
     * start the next miss itself: schedule that instead.
     */
    template <typename F>
    void
    startMiss(Addr addr, bool write, F &&on_restart)
    {
        static_assert(sizeof(std::decay_t<F>) <= RestartFn::inlineBytes,
                      "miss-restart capture exceeds the inline storage");
        ccnuma_assert(!mshr_.valid);
        mshr_.onRestart.reset();
        mshr_.onRestart.emplace(std::forward<F>(on_restart));
        issueMiss(addr, write);
    }

    /** @return true while the single MSHR is occupied. */
    bool missPending() const { return mshr_.valid; }

    /** @return true while a miss on @p line_addr is outstanding. */
    bool
    missPendingOn(Addr line_addr) const
    {
        return mshr_.valid && mshr_.lineAddr == line_addr;
    }

    /** Functional probe: does this unit hold a supplyable copy? */
    bool hasLine(Addr addr) const;

    /**
     * Arm the per-miss request timer: while a miss is outstanding,
     * @p hook is called with its line address every @p ticks ticks
     * so the coherence controller can escalate a stuck miss through
     * its recovery ladder. The node wires it when crash recovery is
     * on; without a hook the timer stays off.
     */
    void
    setMissTimeoutHook(Tick ticks, std::function<void(Addr)> hook)
    {
        missTimeoutTicks_ = ticks;
        missTimeoutHook_ = std::move(hook);
    }

    /**
     * Degraded-mode fence of a dead node: functionally drop every
     * cached line and writeback-buffer entry. The recovery manager
     * migrates Modified data to the lines' homes first.
     */
    void
    invalidateAll()
    {
        l1_.invalidateAll();
        l2_.invalidateAll();
        wbBuffer_.clear();
    }

    /**
     * Fail-stop node death: drop all cached state and stop reacting
     * to bus completions (a fill already in flight for the dead
     * node's MSHR must not re-install a line the migration no longer
     * tracks). The processors are killed alongside, so no new access
     * ever arrives.
     */
    void
    shutdown()
    {
        dead_ = true;
        invalidateAll();
        mshr_.valid = false;
        ++missGen_;
    }

    /** Functional peek at the L2 state (checker). */
    const SetAssocCache &l2() const { return l2_; }

    // --- integrity (PR 7) ---

    /**
     * Inject a correctable bit flip into one word of a random valid
     * L2 line (see SetAssocCache::injectCeFlip).
     * @return the victim line address, or kNoLineTag if empty.
     */
    Addr injectCeFlip(Random &rng) { return l2_.injectCeFlip(rng); }

    /**
     * Uncorrectable-flip containment for a *clean* copy: silently
     * drop the line from both levels. Indistinguishable from a
     * silent clean eviction, which the protocol already tolerates
     * (the directory may list non-holders).
     */
    void
    discardLine(Addr line)
    {
        l2_.invalidate(line);
        l1_.invalidate(line);
    }

    /** L2 scrub pass; @return corrections applied. */
    std::uint64_t scrubL2() { return l2_.scrubNow(); }

    /** L2 single-bit corrections (access + scrub). */
    std::uint64_t eccCorrected() const { return l2_.eccCorrected(); }

    /**
     * PoisonNack containment: abandon the outstanding miss on a dead
     * @p line. The MSHR is cleared without an install and its bus
     * transaction id is remembered so the eventual (deferred) bus
     * completion drains without touching the cache — the processor
     * behind the miss is killed by the caller, so the restart
     * callback is dropped.
     */
    void poisonAbort(Addr line);

    /**
     * Visit writeback-buffer entries as (line, version) pairs. The
     * recovery paths treat these as dirty copies: an evicted Modified
     * line lives only here until its writeback data moves on the bus.
     */
    template <typename F>
    void
    forEachWb(F &&f) const
    {
        for (const auto &wb : wbBuffer_)
            f(wb.lineAddr, wb.version);
    }

    // --- BusAgent ---
    bool busRetryCheck(const BusTxn &txn) const override;
    SnoopResult busSnoop(BusTxn &txn) override;
    void busDone(BusTxn &txn) override;

    stats::Group &statGroup() { return statGroup_; }

    stats::Scalar statL1Hits{"l1_hits", "L1 hits"};
    stats::Scalar statL2Hits{"l2_hits", "L2 hits (L1 misses)"};
    stats::Scalar statMisses{"misses", "L2 misses (bus transactions)"};
    stats::Scalar statUpgradeMisses{"upgrade_misses",
        "stores to Shared lines requiring exclusive ownership"};
    stats::Scalar statWriteBacks{"writebacks",
        "dirty lines written back on eviction"};

  private:
    /**
     * Miss-restart callback: (restart tick, consumed version). Sized
     * for the processor's sync-reference capture, which carries a
     * std::function continuation.
     */
    using RestartFn = SmallCallback<void(Tick, std::uint64_t), 48>;

    /** Open the MSHR for @p addr and issue its bus request. */
    void issueMiss(Addr addr, bool write);
    void installFill(Addr line_addr, bool write, const BusTxn &txn);
    SnoopResult wbSupply(BusTxn &txn);
    void armMissTimer();

    struct Mshr
    {
        bool valid = false;
        Addr lineAddr = 0;
        bool write = false;
        std::uint64_t busTxnId = 0;
        bool invalAfterFill = false;
        RestartFn onRestart;
    };

    struct WbEntry
    {
        Addr lineAddr = 0;
        std::uint64_t version = 0;
        std::uint64_t busTxnId = 0;
    };

    std::string name_;
    EventQueue &eq_;
    Bus &bus_;
    AddressMap &map_;
    NodeId node_ = 0;
    CacheUnitParams params_;
    std::function<std::uint64_t()> nextVersion_;
    int agentId_ = -1;

    SetAssocCache l1_;
    SetAssocCache l2_;
    Mshr mshr_;
    std::vector<WbEntry> wbBuffer_;
    /** Bus txns of poison-aborted misses still draining (PR 7). */
    std::vector<std::uint64_t> poisonedTxns_;
    std::function<void(Addr)> missTimeoutHook_;
    Tick missTimeoutTicks_ = 0;
    /** Invalidates timers of retired misses. */
    std::uint64_t missGen_ = 0;
    /** Set by shutdown(): the node fail-stopped permanently. */
    bool dead_ = false;

    stats::Group statGroup_;
};

} // namespace ccnuma

#endif // CCNUMA_NODE_CACHE_UNIT_HH
