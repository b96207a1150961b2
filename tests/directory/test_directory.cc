#include <gtest/gtest.h>

#include <vector>

#include "directory/directory.hh"

namespace ccnuma
{
namespace
{

DirectoryParams
smallParams()
{
    DirectoryParams p;
    p.cacheEntries = 64;
    p.cacheAssoc = 4;
    return p;
}

TEST(DirEntry, SharerBitmap)
{
    DirEntry e;
    EXPECT_EQ(e.numSharers(), 0u);
    e.addSharer(3);
    e.addSharer(17);
    EXPECT_TRUE(e.isSharer(3));
    EXPECT_TRUE(e.isSharer(17));
    EXPECT_FALSE(e.isSharer(4));
    EXPECT_EQ(e.numSharers(), 2u);
    e.removeSharer(3);
    EXPECT_FALSE(e.isSharer(3));
    EXPECT_EQ(e.numSharers(), 1u);
}

TEST(DirectoryCache, HitAfterMiss)
{
    DirectoryCache c(smallParams(), 128);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(DirectoryCache, LruWithinSet)
{
    DirectoryCache c(smallParams(), 128); // 16 sets, 4 ways
    // Five lines mapping to the same set (stride = sets * line).
    const Addr stride = 16 * 128;
    for (Addr i = 0; i < 4; ++i)
        EXPECT_FALSE(c.access(i * stride));
    for (Addr i = 0; i < 4; ++i)
        EXPECT_TRUE(c.access(i * stride));
    EXPECT_FALSE(c.access(4 * stride)); // evicts line 0
    EXPECT_FALSE(c.access(0));          // line 0 gone
}

TEST(DirectoryStore, BusSideDerivedState)
{
    DirectoryStore d("d", smallParams(), 128);
    EXPECT_EQ(d.busSideState(0x1000), BusSideDirState::NoRemote);
    DirEntry &e = d.entry(0x1000);
    e.state = DirState::SharedRemote;
    e.addSharer(2);
    EXPECT_EQ(d.busSideState(0x1000), BusSideDirState::SharedRemote);
    e.state = DirState::DirtyRemote;
    e.owner = 2;
    EXPECT_EQ(d.busSideState(0x1000), BusSideDirState::DirtyRemote);
}

TEST(DirectoryStore, ReadTimingDependsOnCache)
{
    DirectoryStore d("d", smallParams(), 128);
    bool hit = true;
    // First read misses the directory cache: pays DRAM latency.
    Tick t1 = d.scheduleRead(0x1000, 100, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(t1, 100u + smallParams().dramLatency);
    // Second read hits: available at the requested time.
    Tick t2 = d.scheduleRead(0x1000, 200, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(t2, 200u);
}

TEST(DirectoryStore, DramBusySerializesMisses)
{
    DirectoryStore d("d", smallParams(), 128);
    Tick t1 = d.scheduleRead(0x1000, 100, nullptr);
    Tick t2 = d.scheduleRead(0x2000, 100, nullptr);
    EXPECT_EQ(t1, 100u + smallParams().dramLatency);
    EXPECT_EQ(t2, 100u + smallParams().dramBusy +
                      smallParams().dramLatency);
}

TEST(DirectoryStore, WriteAllocatesIntoCache)
{
    DirectoryStore d("d", smallParams(), 128);
    d.scheduleWrite(0x3000, 50);
    bool hit = false;
    d.scheduleRead(0x3000, 100, &hit);
    EXPECT_TRUE(hit);
}

TEST(DirectoryStore, PeekDoesNotCreate)
{
    DirectoryStore d("d", smallParams(), 128);
    EXPECT_EQ(d.peek(0x1000), nullptr);
    d.entry(0x1000);
    EXPECT_NE(d.peek(0x1000), nullptr);
}

TEST(DirectoryStore, ForEachVisitsEntriesInFirstTouchOrder)
{
    // injectFlip picks its victim as the k-th entry in forEach order,
    // so a seeded flip hits the same line only while that order is
    // first-touch order (a hash map's bucket order would not be).
    DirectoryStore d("d", smallParams(), 128);
    const std::vector<Addr> touched = {0x9000, 0x1000, 0x7f80, 0x0080,
                                       0x4000, 0x2a00, 0x0100};
    for (Addr a : touched)
        d.entry(a);
    d.entry(0x1000); // a repeat touch does not move the entry
    std::vector<Addr> visited;
    d.forEach([&](Addr line, const DirEntry &) {
        visited.push_back(line);
    });
    EXPECT_EQ(visited, touched);
}

} // namespace
} // namespace ccnuma
