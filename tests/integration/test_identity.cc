/**
 * @file
 * Simulation-core identity pinning: retired instructions, total
 * execution ticks and a digest of every printed statistic for all
 * eight SPLASH-2 kernels on all four architectures, plus the stats
 * digest of one crash-fault and one flip-fault run, required to stay
 * bit-identical forever after.
 *
 * Any change to the event core (queue implementation, scheduling
 * order, pooling) that perturbs the deterministic ordering contract
 * (tick, then priority, then insertion seq) shows up here as a
 * changed cycle count long before a paper table drifts. The stats
 * digest also catches a refactor that moves a counter (parked or
 * merged requests, owner nacks, a handler's occupancy) without
 * moving the cycle count.
 *
 * To regenerate after an *intentional* timing-model change, run with
 * CCNUMA_REGEN_GOLDENS=1 and paste the printed table.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "system/machine.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace
{

struct Golden
{
    const char *app;
    Arch arch;
    std::uint64_t instructions;
    Tick execTicks;
    std::uint64_t statsDigest;
};

constexpr Arch kArchs[] = {Arch::HWC, Arch::PPC, Arch::TwoHWC,
                           Arch::TwoPPC};

const char *
archEnumName(Arch a)
{
    switch (a) {
      case Arch::HWC: return "Arch::HWC";
      case Arch::PPC: return "Arch::PPC";
      case Arch::TwoHWC: return "Arch::TwoHWC";
      case Arch::TwoPPC: return "Arch::TwoPPC";
    }
    return "?";
}

/**
 * 64-bit FNV-1a of everything Machine::printStats writes, followed by
 * each protocol engine's occupancy and arrivals (kept outside the
 * stat groups).
 */
std::uint64_t
statsDigest(Machine &m)
{
    std::ostringstream os;
    m.printStats(os);
    for (unsigned n = 0; n < m.numNodes(); ++n) {
        const CoherenceController &cc = m.node(n).cc();
        for (unsigned e = 0; e < cc.numEngines(); ++e)
            os << cc.engineOccupancy(e) << ' ' << cc.engineArrivals(e)
               << '\n';
    }
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : os.str()) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct Point
{
    RunResult result;
    std::uint64_t statsDigest;
};

Point
runPoint(const MachineConfig &cfg, const std::string &app)
{
    WorkloadParams p;
    p.numThreads = cfg.totalProcs();
    p.scale = 0.05;
    auto w = makeWorkload(app, p);
    Machine m(cfg);
    RunResult r = m.run(*w);
    return {r, statsDigest(m)};
}

Point
runPoint(const std::string &app, Arch arch)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 4;
    cfg.node.procsPerNode = 2;
    cfg.withArch(arch);
    return runPoint(cfg, app);
}

/**
 * Golden values at scale 0.05 on a 4-node x 2-proc machine,
 * regenerated for the sharded-scheduler core (PR 5): deferred sync
 * grants and the two-stage network arrival model shift cycle counts
 * slightly; instruction counts are unchanged from the seed.
 *
 * One point (Ocean on TwoPPC) regenerated again in PR 7: replayed
 * local requests served from memory now hold a home transaction
 * across their fetch, closing a window where a concurrent local
 * ReadExcl could fill Modified from memory alongside the in-flight
 * copy (an SWMR violation under contention).
 *
 * Regenerated in PR 10: serial runs restore the seed's zero-delay
 * sync wakes (the per-grant hand-off delay is now applied only when
 * sharded, or under CCNUMA_SYNC_DEFER for oracle runs), shifting
 * serial cycle counts; instruction counts are unchanged.
 *
 * The stats-digest column was recorded before the coherence
 * controller's dispatch was split into a guard stage and per-message
 * handler methods; that split must not move it.
 */
const std::vector<Golden> kGoldens = {
    // clang-format off
    // GOLDEN_TABLE_BEGIN
    {"LU", Arch::HWC, 69216ull, 70547ull, 0x659be6b37fa3cd1dull},
    {"LU", Arch::PPC, 69216ull, 78526ull, 0x5c8816b12ba140f9ull},
    {"LU", Arch::TwoHWC, 69216ull, 70547ull, 0x60d6ec106f240435ull},
    {"LU", Arch::TwoPPC, 69216ull, 78526ull, 0x0665647c381d68d9ull},
    {"Cholesky", Arch::HWC, 1525090ull, 291387ull, 0x49fe7055898b3cbbull},
    {"Cholesky", Arch::PPC, 1525090ull, 338202ull, 0xe63e588b7a4931a8ull},
    {"Cholesky", Arch::TwoHWC, 1525090ull, 289642ull, 0x68bf5332dbabb1eaull},
    {"Cholesky", Arch::TwoPPC, 1525090ull, 333594ull, 0xcb09a31671a23754ull},
    {"Water-Nsq", Arch::HWC, 213451ull, 48397ull, 0x958f3c26095deff4ull},
    {"Water-Nsq", Arch::PPC, 213451ull, 59854ull, 0x542b642c72dd20f5ull},
    {"Water-Nsq", Arch::TwoHWC, 213451ull, 47159ull, 0x0ce187bab910845eull},
    {"Water-Nsq", Arch::TwoPPC, 213451ull, 56447ull, 0x80ddab04c75b7b12ull},
    {"Water-Sp", Arch::HWC, 91776ull, 13267ull, 0x289efeb400f4ef76ull},
    {"Water-Sp", Arch::PPC, 91776ull, 14313ull, 0xd0245d70785fc45cull},
    {"Water-Sp", Arch::TwoHWC, 91776ull, 13199ull, 0xfccd43d6a06356c9ull},
    {"Water-Sp", Arch::TwoPPC, 91776ull, 14093ull, 0xbfb158bcf9215b5eull},
    {"Barnes", Arch::HWC, 4744403ull, 740817ull, 0x3c31561940264048ull},
    {"Barnes", Arch::PPC, 4744403ull, 873318ull, 0xd3c51011493355e3ull},
    {"Barnes", Arch::TwoHWC, 4744403ull, 714543ull, 0x5538519356b8bdd0ull},
    {"Barnes", Arch::TwoPPC, 4744403ull, 799327ull, 0x2fc70c84ec655f39ull},
    {"FFT", Arch::HWC, 31056ull, 17876ull, 0x85cba7a9ca5fa864ull},
    {"FFT", Arch::PPC, 31056ull, 30547ull, 0xc60002e36cce55c9ull},
    {"FFT", Arch::TwoHWC, 31056ull, 16589ull, 0xbae218c5c46237d4ull},
    {"FFT", Arch::TwoPPC, 31056ull, 27312ull, 0xe6cc5cd908b801c9ull},
    {"Radix", Arch::HWC, 5959750ull, 1255187ull, 0xc2fe58eab12fc54full},
    {"Radix", Arch::PPC, 5959750ull, 1906716ull, 0xf3e5f30f74cc00c4ull},
    {"Radix", Arch::TwoHWC, 5959750ull, 1202831ull, 0x9eb28afc7a963c0aull},
    {"Radix", Arch::TwoPPC, 5959750ull, 1612055ull, 0x9c0f1cf107e696acull},
    {"Ocean", Arch::HWC, 8576ull, 16447ull, 0x0c9a903dd0a590baull},
    {"Ocean", Arch::PPC, 8576ull, 26942ull, 0xaf6837413ba9b35bull},
    {"Ocean", Arch::TwoHWC, 8576ull, 15502ull, 0x88aad56633c0b146ull},
    {"Ocean", Arch::TwoPPC, 8576ull, 25962ull, 0x5932c382745b1c3dull},
    // GOLDEN_TABLE_END
    // clang-format on
};

TEST(SimCoreIdentity, AllKernelsAllArchsBitIdentical)
{
    if (std::getenv("CCNUMA_REGEN_GOLDENS") != nullptr) {
        const char *apps[] = {"LU",        "Cholesky", "Water-Nsq",
                              "Water-Sp",  "Barnes",   "FFT",
                              "Radix",     "Ocean"};
        for (const char *app : apps) {
            for (Arch arch : kArchs) {
                Point pt = runPoint(app, arch);
                std::printf("    {\"%s\", %s, %lluull, %lluull, "
                            "0x%016llxull},\n",
                            app, archEnumName(arch),
                            (unsigned long long)pt.result.instructions,
                            (unsigned long long)pt.result.execTicks,
                            (unsigned long long)pt.statsDigest);
            }
        }
        GTEST_SKIP() << "golden regeneration mode";
    }

    ASSERT_GT(kGoldens.size(), 0u)
        << "golden table is empty; run with CCNUMA_REGEN_GOLDENS=1 "
           "and paste the output";
    for (const Golden &g : kGoldens) {
        Point pt = runPoint(g.app, g.arch);
        EXPECT_EQ(pt.result.instructions, g.instructions)
            << g.app << " on " << archEnumName(g.arch);
        EXPECT_EQ(pt.result.execTicks, g.execTicks)
            << g.app << " on " << archEnumName(g.arch);
        EXPECT_EQ(pt.statsDigest, g.statsDigest)
            << g.app << " on " << archEnumName(g.arch);
    }
}

/**
 * A crashed controller that loses its directory and rebuilds it, and
 * an uncorrectable directory flip that escalates through the same
 * recovery: FFT on a 2-node x 2-proc PPC machine.
 */
MachineConfig
faultConfig(bool flip)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 2;
    cfg.withArch(Arch::PPC);
    if (flip) {
        cfg.withIntegrity();
        FlipFault f;
        f.domain = FlipDomain::Directory;
        f.node = 1;
        f.atTick = 9'000;
        f.bits = 2;
        f.seed = 7;
        cfg.verify.faults.flips.push_back(f);
    } else {
        cfg.withCrashRecovery();
        CrashFault f;
        f.node = 1;
        f.atTick = 9'000;
        f.loseDirectory = true;
        cfg.verify.faults.crashes.push_back(f);
    }
    return cfg;
}

TEST(SimCoreIdentity, FaultPointsStatsBitIdentical)
{
    const std::uint64_t kCrashDigest = 0x92811babd323d915ull;
    const std::uint64_t kFlipDigest = 0x7b734acaf7dd8c2dull;
    Point crash = runPoint(faultConfig(false), "FFT");
    Point flip = runPoint(faultConfig(true), "FFT");
    if (std::getenv("CCNUMA_REGEN_GOLDENS") != nullptr) {
        std::printf("    const std::uint64_t kCrashDigest = "
                    "0x%016llxull;\n"
                    "    const std::uint64_t kFlipDigest = "
                    "0x%016llxull;\n",
                    (unsigned long long)crash.statsDigest,
                    (unsigned long long)flip.statsDigest);
        GTEST_SKIP() << "golden regeneration mode";
    }
    EXPECT_TRUE(crash.result.completed);
    EXPECT_EQ(crash.result.crashesInjected, 1u);
    EXPECT_EQ(crash.result.dirRebuilds, 1u);
    EXPECT_EQ(crash.statsDigest, kCrashDigest);
    EXPECT_TRUE(flip.result.completed);
    EXPECT_GT(flip.result.integrityEscalations, 0u);
    EXPECT_EQ(flip.statsDigest, kFlipDigest);
}

} // namespace
} // namespace ccnuma
