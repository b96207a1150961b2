/**
 * @file
 * Directory state for a home node.
 *
 * Both controller designs in the paper keep two copies of the
 * directory: a full-bit-map controller-side copy in DRAM and an
 * abbreviated 2-bit-per-line bus-side copy in fast SRAM that lets the
 * bus-side logic answer snoops at full bus rate. A write-through
 * directory cache (8K full-map entries) hides controller-side DRAM
 * read latency.
 *
 * Functionally we keep one authoritative entry per line; the bus-side
 * copy is the derived 2-bit summary (kept consistent by construction,
 * mirroring the custom directory access controller both designs
 * include). Timing-wise, the directory DRAM is a contended resource
 * with a busy-until model, and the directory cache decides whether an
 * engine's directory read pays the DRAM latency.
 */

#ifndef CCNUMA_DIRECTORY_DIRECTORY_HH
#define CCNUMA_DIRECTORY_DIRECTORY_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "directory/line_map.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "verify/ecc.hh"

namespace ccnuma
{

/** Stable directory states for a local line. */
enum class DirState : std::uint8_t
{
    Home,         ///< no remote copies
    SharedRemote, ///< clean copies at the nodes in the sharer bitmap
    DirtyRemote,  ///< exclusive/modified copy at owner node
};

const char *dirStateName(DirState s);

/** The bus-side abbreviated (2-bit) state of a local line. */
enum class BusSideDirState : std::uint8_t
{
    NoRemote,
    SharedRemote,
    DirtyRemote,
};

/** Full-bit-map directory entry. */
struct DirEntry
{
    DirState state = DirState::Home;
    std::uint64_t sharers = 0; ///< bitmap of remote sharer nodes
    NodeId owner = 0;          ///< valid when state == DirtyRemote

    unsigned
    numSharers() const
    {
        return static_cast<unsigned>(std::popcount(sharers));
    }

    bool
    isSharer(NodeId n) const
    {
        return (sharers >> n) & 1ull;
    }

    void addSharer(NodeId n) { sharers |= 1ull << n; }
    void removeSharer(NodeId n) { sharers &= ~(1ull << n); }
};

/** Directory timing parameters. */
struct DirectoryParams
{
    /** Controller-side DRAM read latency in ticks. */
    Tick dramLatency = 16;
    /** DRAM occupied per access in ticks. */
    Tick dramBusy = 12;
    /** Directory cache capacity in entries (paper: 8K). */
    unsigned cacheEntries = 8192;
    unsigned cacheAssoc = 4;
    /** Disable the directory cache entirely (ablation). */
    bool cacheEnabled = true;
};

/**
 * Write-through directory cache: tags only, used to decide whether a
 * controller-side directory read hits in the cache or pays the DRAM
 * round trip. Writes are write-through and posted.
 */
class DirectoryCache
{
  public:
    DirectoryCache(const DirectoryParams &p, unsigned line_bytes);

    /**
     * Look up @p line_addr, allocating it on a miss.
     * @return true on hit.
     */
    bool access(Addr line_addr);

    /** Invalidate all entries. */
    void reset();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Tag
    {
        Addr line = ~static_cast<Addr>(0);
        std::uint64_t lastUse = 0;
    };

    unsigned assoc_;
    unsigned numSets_;
    unsigned lineShift_;
    std::vector<Tag> tags_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** Outcome of a directory bit-flip injection (PR 7 integrity). */
struct DirFlipResult
{
    bool applied = false;       ///< false = directory empty, no victim
    bool uncorrectable = false; ///< double flip: entry is lost
    Addr line = 0;              ///< the victim line
};

/**
 * The home node's directory: authoritative full-map entries plus the
 * DRAM timing model and the directory cache.
 *
 * Integrity model (PR 7): each entry is conceptually two SECDED(72,64)
 * codewords — word 0 the sharer bitmap, word 1 the state and owner.
 * Check bytes are pure functions of the stored words, so only flips
 * need materializing: a correctable (single-bit) flip corrupts the
 * live word and parks the corrupted check byte in a pending side
 * table, and *every* accessor resolves pending corrections before the
 * entry is observed — the corrupted value is never served. The
 * background scrubber resolves them the same way on its own clock.
 */
class DirectoryStore
{
  public:
    DirectoryStore(const std::string &name, const DirectoryParams &p,
                   unsigned line_bytes);

    /** Get (creating on demand) the entry for a local line. */
    DirEntry &entry(Addr line_addr);

    /** Peek without creating; @return nullptr if never touched. */
    const DirEntry *peek(Addr line_addr) const;

    /** Derived bus-side 2-bit state. */
    BusSideDirState busSideState(Addr line_addr) const;

    /**
     * Account a controller-side directory read at @p earliest.
     * @param[out] hit whether the directory cache hit
     * @return the tick the directory data is available
     */
    Tick scheduleRead(Addr line_addr, Tick earliest, bool *hit);

    /** Account a (posted, write-through) directory write. */
    void scheduleWrite(Addr line_addr, Tick when);

    /**
     * Fail-stop SRAM/DRAM content loss: forget every full-map entry
     * and invalidate the directory cache. The recovering home
     * rebuilds the map from DirProbe responses.
     */
    void
    invalidateAll()
    {
        // Pending corrections die with the entries they would have
        // repaired; count them so the integrity ledger still closes.
        pendingDropped_ += pendingCe_.size();
        pendingCe_.clear();
        entries_.clear();
        cache_.reset();
    }

    const DirectoryParams &params() const { return params_; }

    /** Visit all entries (invariant checker). */
    template <typename F>
    void
    forEach(F &&f) const
    {
        resolvePending();
        entries_.forEach(f);
    }

    // --- integrity (PR 7) ---

    /**
     * Inject a seeded bit flip into one existing entry: @p bits = 1
     * corrupts the live word and parks the correction in the pending
     * table; @p bits = 2 is uncorrectable — the entry is reported
     * lost for the caller to escalate (nothing is mutated, since the
     * escalation wipes the whole directory for a rebuild anyway).
     */
    DirFlipResult injectFlip(Random &rng, unsigned bits);

    /**
     * Background scrub pass: resolve every pending correction now.
     * @return the number of words corrected.
     */
    std::uint64_t
    scrubNow()
    {
        std::uint64_t before = eccCorrected_;
        resolvePending();
        return eccCorrected_ - before;
    }

    /** Single-bit flips corrected (at access or by scrub). */
    std::uint64_t eccCorrected() const { return eccCorrected_; }
    /** Pending corrections dropped by invalidateAll (rebuilds). */
    std::uint64_t pendingDropped() const { return pendingDropped_; }
    /** Corrections still latent (tests). */
    std::size_t pendingCount() const { return pendingCe_.size(); }

    stats::Group &statGroup() { return statGroup_; }

    stats::Scalar statReads{"reads", "controller-side reads"};
    stats::Scalar statWrites{"writes", "controller-side writes"};
    stats::Scalar statCacheHits{"cache_hits", "directory cache hits"};
    stats::Scalar statCacheMisses{"cache_misses",
        "directory cache misses"};

  private:
    /** One latent single-bit corruption awaiting correction. */
    struct PendingCe
    {
        Addr line = 0;
        unsigned word = 0;          ///< 0 = sharers, 1 = state/owner
        std::uint8_t check = 0;     ///< check byte seen by decode
        std::uint64_t shadow = 0;   ///< pristine word (cross-check)
        /**
         * The corrupted codeword as the SRAM would hold it. The live
         * entry only mirrors the flip as far as its packed fields
         * can represent it, so resolution decodes this saved image
         * (the entry cannot change in between: every access resolves
         * first).
         */
        std::uint64_t corrupted = 0;
    };

    /**
     * Apply every pending correction. Logically const: it restores
     * the semantic value the store already represents, so the const
     * accessors may call it before observing an entry. The inline
     * empty() test keeps the cost of a clean configuration to one
     * never-taken branch per directory access.
     */
    void
    resolvePending() const
    {
        if (!pendingCe_.empty())
            resolvePendingSlow();
    }

    void resolvePendingSlow() const;

    static std::uint64_t packWord(const DirEntry &e, unsigned w);
    static void unpackWord(DirEntry &e, unsigned w, std::uint64_t v);

    DirectoryParams params_;
    mutable LineMap<DirEntry> entries_;
    DirectoryCache cache_;
    Tick dramFreeAt_ = 0;
    mutable std::vector<PendingCe> pendingCe_;
    mutable std::uint64_t eccCorrected_ = 0;
    std::uint64_t pendingDropped_ = 0;
    stats::Group statGroup_;
};

} // namespace ccnuma

#endif // CCNUMA_DIRECTORY_DIRECTORY_HH
