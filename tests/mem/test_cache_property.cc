/**
 * @file
 * Property test: the set-associative cache against a simple
 * reference model (per-set LRU list), under long random operation
 * sequences.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "mem/cache.hh"
#include "sim/random.hh"

namespace ccnuma
{
namespace
{

/** Reference: per-set most-recently-used-first list of line addrs. */
struct RefModel
{
    unsigned assoc;
    unsigned numSets;
    unsigned lineBytes;
    std::map<std::size_t, std::list<Addr>> sets;

    std::size_t
    setOf(Addr line) const
    {
        return (line / lineBytes) % numSets;
    }

    bool
    present(Addr line) const
    {
        auto it = sets.find(setOf(line));
        if (it == sets.end())
            return false;
        for (Addr a : it->second) {
            if (a == line)
                return true;
        }
        return false;
    }

    void
    touch(Addr line)
    {
        auto &s = sets[setOf(line)];
        s.remove(line);
        s.push_front(line);
    }

    /** @return evicted line, or ~0 if none. */
    Addr
    allocate(Addr line)
    {
        auto &s = sets[setOf(line)];
        s.push_front(line);
        if (s.size() > assoc) {
            Addr victim = s.back();
            s.pop_back();
            return victim;
        }
        return ~static_cast<Addr>(0);
    }

    void invalidate(Addr line) { sets[setOf(line)].remove(line); }
};

class CacheVsReference : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheVsReference, LongRandomSequenceAgrees)
{
    const unsigned line = 128;
    SetAssocCache c("c", 16 * 1024, 4, line); // 32 sets
    RefModel ref{4, c.numSets(), line, {}};
    Random rng(GetParam());

    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.below(256) * line; // 256 lines: 8x pressure
        int op = static_cast<int>(rng.below(10));
        if (op < 7) {
            // Access: hit must agree; miss allocates in both.
            CacheLine *l = c.findLine(addr);
            bool ref_hit = ref.present(addr);
            ASSERT_EQ(l != nullptr, ref_hit)
                << "iter " << i << " addr " << std::hex << addr;
            if (l) {
                c.touch(l);
                ref.touch(addr);
            } else {
                SetAssocCache::Victim v;
                c.allocate(addr, LineState::Shared, &v);
                Addr ref_victim = ref.allocate(addr);
                ASSERT_EQ(v.valid,
                          ref_victim != ~static_cast<Addr>(0));
                if (v.valid) {
                    ASSERT_EQ(v.lineAddr, ref_victim);
                }
            }
        } else if (op < 9) {
            // External invalidation.
            c.invalidate(addr);
            ref.invalidate(addr);
        } else {
            // Cross-check a random probe without touching.
            ASSERT_EQ(c.findLine(addr) != nullptr,
                      ref.present(addr));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheVsReference,
                         ::testing::Values(1, 7, 42, 1234, 99999));

} // namespace
} // namespace ccnuma
