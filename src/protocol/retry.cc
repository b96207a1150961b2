#include "protocol/retry.hh"

#include <algorithm>

namespace ccnuma
{

Tick
backoffDelay(Tick base, Tick max, unsigned level)
{
    // 2^63 ticks is far past any simulation horizon; saturate the
    // shift so a long retry streak cannot wrap around to a small
    // delay.
    if (level > 32)
        level = 32;
    Tick d = base << level;
    if (d < base)
        d = maxTick; // overflowed
    return std::min(d, max);
}

RetryTracker::Attempt
RetryTracker::next(std::uint64_t key)
{
    unsigned &c = counts_[key];
    ++c;
    Attempt a;
    a.count = c;
    if (!bounded_)
        return a; // the paper's immediate, unbounded retry
    if (c > maxRetries) {
        a.exhausted = true;
        return a;
    }
    a.delay = backoffDelay(backoffBase, backoffMax, c - 1);
    return a;
}

} // namespace ccnuma
