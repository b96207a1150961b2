#include <gtest/gtest.h>

#include "mem/memory_controller.hh"

namespace ccnuma
{
namespace
{

MemoryParams
params()
{
    MemoryParams p;
    p.numBanks = 4;
    p.bankBusy = 24;
    p.accessLatency = 20;
    return p;
}

TEST(Memory, IdleBankReadLatency)
{
    MemoryController m("m", params(), 128);
    EXPECT_EQ(m.scheduleRead(0, 100), 120u);
}

TEST(Memory, SameBankSerializes)
{
    MemoryController m("m", params(), 128);
    Tick a = m.scheduleRead(0, 100);
    // Same bank (same line address): starts only when bank frees.
    Tick b = m.scheduleRead(0, 100);
    EXPECT_EQ(a, 120u);
    EXPECT_EQ(b, 100u + 24 + 20);
}

TEST(Memory, DifferentBanksOverlap)
{
    MemoryController m("m", params(), 128);
    Tick a = m.scheduleRead(0, 100);
    Tick b = m.scheduleRead(128, 100); // next line -> next bank
    EXPECT_EQ(a, 120u);
    EXPECT_EQ(b, 120u);
}

TEST(Memory, BankInterleaveWraps)
{
    MemoryController m("m", params(), 128);
    // Lines 0 and 4 share bank 0 with 4 banks.
    Tick a = m.scheduleRead(0, 0);
    Tick b = m.scheduleRead(4 * 128, 0);
    EXPECT_EQ(a, 20u);
    EXPECT_EQ(b, 24u + 20u);
}

TEST(Memory, WritesOccupyBanks)
{
    MemoryController m("m", params(), 128);
    EXPECT_EQ(m.scheduleWrite(0, 50), 50u);
    // A read right behind the write waits for the bank.
    EXPECT_EQ(m.scheduleRead(0, 50), 50u + 24 + 20);
    EXPECT_EQ(m.statWrites.value(), 1.0);
    EXPECT_EQ(m.statReads.value(), 1.0);
}

TEST(Memory, VersionStore)
{
    MemoryController m("m", params(), 128);
    EXPECT_EQ(m.version(0x1000), 0u);
    m.setVersion(0x1000, 17);
    EXPECT_EQ(m.version(0x1000), 17u);
    EXPECT_EQ(m.version(0x2000), 0u);
}

} // namespace
} // namespace ccnuma
