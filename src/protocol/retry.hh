/**
 * @file
 * Bounded retry with capped exponential backoff.
 *
 * The protocol retries transient conditions — a forward nacked by a
 * stale owner, a request bounced back by the home, an engine held by
 * an injected stall. The paper's model retries immediately and
 * without bound, which is faithful to the hardware but livelocks
 * under adversarial fault injection. RetryTracker centralizes the
 * alternative policy: each retry of a key waits base * 2^(n-1) ticks
 * (capped), and after maxRetries the caller escalates with a clean
 * diagnostic instead of spinning forever.
 *
 * The machine arms the bounded policy from FaultTolerance::Transport
 * up; below it the tracker reproduces the paper's immediate,
 * unbounded retry exactly, so timing results are unchanged.
 */

#ifndef CCNUMA_PROTOCOL_RETRY_HH
#define CCNUMA_PROTOCOL_RETRY_HH

#include <cstdint>
#include <unordered_map>

#include "sim/fault_tolerance.hh"
#include "sim/types.hh"

namespace ccnuma
{

/**
 * Per-key retry bookkeeping for one component. Keys are whatever
 * the caller retries on (the coherence controllers use line
 * addresses). clear() must be called when the operation finally
 * succeeds so an occasionally-nacked hot line never accumulates
 * toward escalation.
 */
class RetryTracker
{
  public:
    /**
     * The bounded policy: the first re-attempt waits 32 ticks,
     * doubling up to 8192, and the 65th retry escalates. 64 doublings
     * capped at 8K ticks is far beyond any transient condition the
     * protocol can produce, so escalation only fires on genuine
     * livelock.
     */
    static constexpr Tick backoffBase = 32;
    static constexpr Tick backoffMax = 8192;
    static constexpr unsigned maxRetries = 64;

    /** Bounded from FaultTolerance::Transport up, else the paper's. */
    explicit RetryTracker(FaultTolerance level)
        : bounded_(level >= FaultTolerance::Transport)
    {}

    struct Attempt
    {
        /** Ticks to wait before re-attempting. */
        Tick delay = 0;
        /** Retry budget exhausted: escalate, do not retry. */
        bool exhausted = false;
        /** Consecutive retries of this key, including this one. */
        unsigned count = 0;
    };

    /** Record a retry of @p key and compute its backoff. */
    Attempt next(std::uint64_t key);

    /** The operation succeeded: forget the key's retry history. */
    void clear(std::uint64_t key) { counts_.erase(key); }

    /** Fail-stop crash: all in-flight operations died with it. */
    void clearAll() { counts_.clear(); }

    /** True when the policy escalates instead of retrying forever. */
    bool bounded() const { return bounded_; }

  private:
    bool bounded_;
    std::unordered_map<std::uint64_t, unsigned> counts_;
};

/**
 * Capped exponential backoff: base * 2^level, saturated at @p max
 * and guarded against shift overflow.
 */
Tick backoffDelay(Tick base, Tick max, unsigned level);

} // namespace ccnuma

#endif // CCNUMA_PROTOCOL_RETRY_HH
