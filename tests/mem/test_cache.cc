#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace ccnuma
{
namespace
{

// 4 KB, 4-way, 128 B lines -> 8 sets.
SetAssocCache
makeCache()
{
    return SetAssocCache("c", 4096, 4, 128);
}

TEST(Cache, Geometry)
{
    SetAssocCache c = makeCache();
    EXPECT_EQ(c.numSets(), 8u);
    EXPECT_EQ(c.assoc(), 4u);
    EXPECT_EQ(c.lineBytes(), 128u);
    EXPECT_EQ(c.lineAlign(0x12345), 0x12300u);
}

TEST(Cache, MissThenHit)
{
    SetAssocCache c = makeCache();
    EXPECT_EQ(c.findLine(0x1000), nullptr);
    c.allocate(0x1000, LineState::Shared, nullptr);
    CacheLine *l = c.findLine(0x1040); // same line
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state, LineState::Shared);
}

TEST(Cache, LruEviction)
{
    SetAssocCache c = makeCache();
    // Fill one set: addresses differing by 8*128 map to set 0.
    const Addr stride = 8 * 128;
    for (Addr i = 0; i < 4; ++i)
        c.allocate(i * stride, LineState::Shared, nullptr);
    // Touch line 0 so line 1 is LRU.
    c.touch(c.findLine(0));
    SetAssocCache::Victim v;
    c.allocate(4 * stride, LineState::Shared, &v);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, stride);
    EXPECT_EQ(c.findLine(stride), nullptr);
    EXPECT_NE(c.findLine(0), nullptr);
}

TEST(Cache, VictimReportsStateAndVersion)
{
    SetAssocCache c = makeCache();
    const Addr stride = 8 * 128;
    CacheLine *l = c.allocate(0, LineState::Modified, nullptr);
    l->version = 99;
    for (Addr i = 1; i < 4; ++i)
        c.allocate(i * stride, LineState::Shared, nullptr);
    // Make line 0 the LRU victim.
    for (Addr i = 1; i < 4; ++i)
        c.touch(c.findLine(i * stride));
    SetAssocCache::Victim v;
    c.allocate(4 * stride, LineState::Exclusive, &v);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, 0u);
    EXPECT_EQ(v.state, LineState::Modified);
    EXPECT_EQ(v.version, 99u);
    EXPECT_EQ(c.statDirtyEvictions.value(), 1.0);
}

TEST(Cache, InvalidateReturnsPriorState)
{
    SetAssocCache c = makeCache();
    c.allocate(0x2000, LineState::Modified, nullptr);
    EXPECT_EQ(c.invalidate(0x2000), LineState::Modified);
    EXPECT_EQ(c.invalidate(0x2000), LineState::Invalid);
    EXPECT_EQ(c.findLine(0x2000), nullptr);
}

TEST(Cache, AllocateIntoInvalidWayFirst)
{
    SetAssocCache c = makeCache();
    c.allocate(0x0, LineState::Shared, nullptr);
    c.invalidate(0x0);
    SetAssocCache::Victim v;
    c.allocate(8 * 128, LineState::Shared, &v);
    EXPECT_FALSE(v.valid);
}

TEST(Cache, NumValidAndForEach)
{
    SetAssocCache c = makeCache();
    c.allocate(0x0, LineState::Shared, nullptr);
    c.allocate(0x80, LineState::Modified, nullptr);
    EXPECT_EQ(c.numValid(), 2u);
    unsigned modified = 0;
    c.forEachLine([&](const CacheLine &l) {
        if (l.state == LineState::Modified)
            ++modified;
    });
    EXPECT_EQ(modified, 1u);
    c.invalidateAll();
    EXPECT_EQ(c.numValid(), 0u);
}

TEST(Cache, PartialTagCollisionsStayDistinct)
{
    // Two lines of one set with equal 8-bit partial tags: the snoop
    // filter passes both to the full tag compare, which must tell
    // them apart through every operation that writes the filter and
    // through a corrected tag flip.
    SetAssocCache c = makeCache();
    const Addr stride = c.numSets() * c.lineBytes(); // same set
    const Addr a = 0x2000;
    Addr b = a + stride;
    while (c.partialTag(b) != c.partialTag(a))
        b += stride;
    Addr other = a + stride;
    while (c.partialTag(other) == c.partialTag(a))
        other += stride;

    auto expect_held = [&](Addr x, bool held) {
        const CacheLine *l = c.findLine(x);
        if (!held) {
            EXPECT_EQ(l, nullptr) << std::hex << x;
            return;
        }
        ASSERT_NE(l, nullptr) << std::hex << x;
        EXPECT_EQ(l->lineAddr, x);
    };

    c.allocate(a, LineState::Shared, nullptr);
    expect_held(a, true);
    expect_held(b, false);
    expect_held(other, false);
    c.allocate(b, LineState::Modified, nullptr);
    expect_held(a, true);
    expect_held(b, true);
    EXPECT_EQ(c.findLine(b)->state, LineState::Modified);

    EXPECT_EQ(c.invalidate(a), LineState::Shared);
    expect_held(a, false);
    expect_held(b, true);
    c.allocate(a, LineState::Exclusive, nullptr);
    expect_held(a, true);

    c.invalidateAll();
    expect_held(a, false);
    expect_held(b, false);

    // Correctable flips on both lines, each scrubbed before the next.
    // injectCeFlip draws the victim, then the word (0 = tag), then
    // the bit; a copy of the generator shows which flips hit a tag.
    c.allocate(a, LineState::Shared, nullptr);
    c.allocate(b, LineState::Shared, nullptr);
    Random rng(7);
    unsigned tag_flips = 0;
    for (int i = 0; i < 24; ++i) {
        Random peek = rng;
        peek.below(c.numValid());
        tag_flips += peek.below(3) == 0;
        const Addr victim = c.injectCeFlip(rng);
        EXPECT_TRUE(victim == a || victim == b);
        EXPECT_EQ(c.scrubNow(), 1u);
        expect_held(a, true);
        expect_held(b, true);
        expect_held(other, false);
    }
    EXPECT_GT(tag_flips, 0u);
}

TEST(Cache, RecycledArraysStartEmpty)
{
    // A destroyed cache's tag arrays go to the next cache of the same
    // size built on the thread; that cache must start with no line.
    {
        SetAssocCache c = makeCache();
        for (Addr a = 0; a < 32 * 128; a += 128)
            c.allocate(a, LineState::Modified, nullptr);
        ASSERT_EQ(c.numValid(), 32u);
    }
    SetAssocCache c = makeCache();
    EXPECT_EQ(c.numValid(), 0u);
    for (Addr a = 0; a < 32 * 128; a += 128)
        EXPECT_EQ(c.findLine(a), nullptr) << std::hex << a;
}

TEST(Cache, BadGeometryRejected)
{
    EXPECT_THROW(SetAssocCache("bad", 4096, 4, 100), FatalError);
    EXPECT_THROW(SetAssocCache("bad", 4096, 0, 128), FatalError);
}

} // namespace
} // namespace ccnuma
