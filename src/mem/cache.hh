/**
 * @file
 * Set-associative LRU cache with MESI line states.
 *
 * This models the tag/state arrays of the 16 KB L1 and 1 MB 4-way L2
 * caches of the paper's SMP nodes. Timing lives in the node model;
 * this class provides state, replacement, and bookkeeping. Lines carry
 * a version number used by the coherence invariant checker (each
 * machine-wide store bumps the line's version), not simulated data.
 */

#ifndef CCNUMA_MEM_CACHE_HH
#define CCNUMA_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "verify/ecc.hh"

namespace ccnuma
{

/** MESI cache line states. */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive, ///< clean, sole copy (only attainable for local lines)
    Modified,
};

/** @return short name for a line state ("I", "S", "E", "M"). */
const char *lineStateName(LineState s);

/** @return true for states holding a valid copy. */
inline bool
lineValid(LineState s)
{
    return s != LineState::Invalid;
}

/**
 * Tag value carried by lines that hold no copy. Never equal to any
 * line-aligned address, so the hot lookup loop can compare tags alone
 * without also testing the state byte.
 */
inline constexpr Addr kNoLineTag = ~static_cast<Addr>(0);

/** One cache line's tag/state entry. */
struct CacheLine
{
    /** Full line-aligned address (the tag); kNoLineTag when invalid. */
    Addr lineAddr = kNoLineTag;
    LineState state = LineState::Invalid;
    std::uint64_t lastUse = 0;  ///< LRU timestamp
    std::uint64_t version = 0;  ///< checker: version of held data
};

/**
 * A set-associative cache with true-LRU replacement.
 *
 * The cache does not move data; callers react to the returned victim
 * information (e.g. issue a writeback for a Modified victim).
 */
class SetAssocCache
{
  public:
    /** Description of a line displaced by allocate(). */
    struct Victim
    {
        bool valid = false;
        Addr lineAddr = 0;
        LineState state = LineState::Invalid;
        std::uint64_t version = 0;
    };

    /**
     * @param name stat prefix
     * @param size_bytes total capacity
     * @param assoc ways per set
     * @param line_bytes line size (power of two)
     */
    SetAssocCache(const std::string &name, std::uint64_t size_bytes,
                  unsigned assoc, unsigned line_bytes);

    /** Hands the tag arrays to the next cache built on this thread. */
    ~SetAssocCache();

    unsigned lineBytes() const { return lineBytes_; }
    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    /** Line-align an address. */
    Addr
    lineAlign(Addr a) const
    {
        return a & ~static_cast<Addr>(lineBytes_ - 1);
    }

    /**
     * Find the line holding @p addr. Only ways whose partial tag
     * matches are compared in full, so a miss (every snoop of an
     * absent line) reads the set's partial-tag bytes and, unless one
     * of them collides, nothing else.
     * @return pointer into the tag array, or nullptr on miss.
     */
    CacheLine *findLine(Addr addr);
    const CacheLine *findLine(Addr addr) const;

    /**
     * The 8-bit partial tag of @p addr's line: the low byte of the
     * bits above the set index, folded with the next byte, and never
     * 0 (the mark of an empty way).
     */
    std::uint8_t
    partialTag(Addr addr) const
    {
        const Addr tag = addr >> tagShift_;
        const auto h = static_cast<std::uint8_t>(tag ^ (tag >> 8));
        return h != 0 ? h : 1;
    }

    /** Mark a line most-recently-used. */
    void
    touch(CacheLine *line)
    {
        line->lastUse = ++useClock_;
    }

    /**
     * Install @p addr in state @p st, evicting the LRU way if the set
     * is full. The displaced line (if any) is reported via @p victim.
     * @return the installed line.
     * @pre the address is not already present.
     */
    CacheLine *allocate(Addr addr, LineState st, Victim *victim);

    /** Invalidate @p addr if present. @return prior state. */
    LineState invalidate(Addr addr);

    /** Visit every valid line (used by the invariant checker). */
    template <typename F>
    void
    forEachLine(F &&f) const
    {
        resolvePending();
        for (const auto &line : lines_) {
            if (lineValid(line.state))
                f(line);
        }
    }

    /** Drop every line (used between workload phases in tests). */
    void invalidateAll();

    /** Count of currently valid lines. */
    std::size_t numValid() const;

    // --- integrity (PR 7) ---

    /**
     * Inject a correctable (single-bit) flip into one SECDED word of
     * a random valid line: the live word (tag, version, or state) is
     * corrupted in place and the correction parked in the pending
     * table. Every accessor resolves pending corrections before
     * observing any line, so the corrupted value is never served.
     * @return the victim line address, or kNoLineTag if the cache
     *         holds nothing to corrupt.
     */
    Addr injectCeFlip(Random &rng);

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
    /** Corrections still latent (tests). */
    std::size_t pendingCount() const { return pendingCe_.size(); }

    stats::Group &statGroup() { return statGroup_; }

    stats::Scalar statEvictions{"evictions",
        "lines displaced by allocation"};
    stats::Scalar statDirtyEvictions{"dirty_evictions",
        "modified lines displaced by allocation"};
    stats::Scalar statInvalidations{"invalidations",
        "lines invalidated by external request"};

  private:
    std::size_t setIndex(Addr addr) const;

    /** One latent single-bit corruption awaiting correction. */
    struct PendingCe
    {
        std::size_t lineIdx = 0;  ///< index into lines_
        unsigned word = 0;        ///< 0 = tag, 1 = version, 2 = state
        std::uint8_t check = 0;   ///< check byte seen by decode
        std::uint64_t shadow = 0; ///< pristine word (cross-check)
        /**
         * The corrupted codeword as the SRAM would hold it. The live
         * line only mirrors the flip as far as its packed fields can
         * represent it, so resolution decodes this saved image (the
         * line cannot change in between: every access resolves
         * first).
         */
        std::uint64_t corrupted = 0;
    };

    /**
     * Apply every pending correction before any observation of the
     * tag array (logically const — it restores the semantic value).
     * The inline empty() test keeps a clean configuration's cost to
     * one never-taken branch per lookup.
     */
    void
    resolvePending() const
    {
        if (!pendingCe_.empty())
            resolvePendingSlow();
    }

    void resolvePendingSlow() const;

    static std::uint64_t packWord(const CacheLine &l, unsigned w);
    static void unpackWord(CacheLine &l, unsigned w, std::uint64_t v);

    std::string name_;
    unsigned lineBytes_;
    unsigned assoc_;
    unsigned numSets_;
    unsigned lineShift_;
    /** Shift that drops the offset and set-index bits. */
    unsigned tagShift_;
    mutable std::vector<CacheLine> lines_; ///< set-major
    /**
     * Host-side snoop filter, parallel to lines_: each way's
     * partialTag(), 0 when the way holds no line. Only allocate(),
     * invalidate() and invalidateAll() write it; an injected tag flip
     * corrupts lines_ alone and is corrected before any lookup, so
     * the filter always describes the pristine tags.
     */
    std::vector<std::uint8_t> partial_;
    std::uint64_t useClock_ = 0;
    mutable std::vector<PendingCe> pendingCe_;
    mutable std::uint64_t eccCorrected_ = 0;
    stats::Group statGroup_;
};

} // namespace ccnuma

#endif // CCNUMA_MEM_CACHE_HH
