#include <gtest/gtest.h>

#include <vector>

#include "obs/ring.hh"

namespace ccnuma
{
namespace
{

obs::TraceEvent
ev(std::uint32_t id)
{
    obs::TraceEvent e;
    e.id = id;
    e.start = id * 10;
    e.kind = obs::SpanKind::Miss;
    return e;
}

TEST(EventRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(obs::EventRing(1).capacity(), 1u);
    EXPECT_EQ(obs::EventRing(2).capacity(), 2u);
    EXPECT_EQ(obs::EventRing(3).capacity(), 4u);
    EXPECT_EQ(obs::EventRing(1000).capacity(), 1024u);
    // Beyond the largest power of two the round-up would wrap to 0.
    EXPECT_THROW(obs::EventRing(obs::EventRing::maxCapacity + 1),
                 PanicError);
}

TEST(EventRing, FifoOrder)
{
    obs::EventRing r(8);
    for (std::uint32_t i = 0; i < 5; ++i)
        EXPECT_TRUE(r.push(ev(i)));
    std::vector<std::uint32_t> seen;
    r.forEach([&](const obs::TraceEvent &e) { seen.push_back(e.id); });
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(r.size(), 5u);
    EXPECT_EQ(r.pushed(), 5u);
    EXPECT_EQ(r.dropped(), 0u);
}

TEST(EventRing, OverflowDropsNewestAndCounts)
{
    obs::EventRing r(4);
    for (std::uint32_t i = 0; i < 10; ++i)
        r.push(ev(i));

    // The ring kept the contiguous prefix and counted every drop —
    // no silent loss.
    EXPECT_EQ(r.size(), 4u);
    EXPECT_EQ(r.pushed(), 4u);
    EXPECT_EQ(r.dropped(), 6u);

    std::vector<std::uint32_t> seen;
    r.forEach([&](const obs::TraceEvent &e) { seen.push_back(e.id); });
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(EventRing, PushReportsDrop)
{
    obs::EventRing r(2);
    EXPECT_TRUE(r.push(ev(0)));
    EXPECT_TRUE(r.push(ev(1)));
    EXPECT_FALSE(r.push(ev(2)));
    EXPECT_EQ(r.dropped(), 1u);
}

TEST(EventRing, ClearResetsAccounting)
{
    obs::EventRing r(2);
    r.push(ev(0));
    r.push(ev(1));
    r.push(ev(2)); // dropped
    r.clear();
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.pushed(), 0u);
    EXPECT_EQ(r.dropped(), 0u);
    EXPECT_TRUE(r.push(ev(7)));
    std::vector<std::uint32_t> seen;
    r.forEach([&](const obs::TraceEvent &e) { seen.push_back(e.id); });
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{7}));
}

} // namespace
} // namespace ccnuma
