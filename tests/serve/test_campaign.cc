/**
 * @file
 * Campaign specs and the one-execution-path guarantee: spec
 * validation, grid expansion, and — the load-bearing check — results
 * served through the campaign backend (SimPoint resolution, cache,
 * CampaignRunner) are bit-identical to direct bench-style runs, with
 * the refactored harness pinned against pre-refactor golden numbers.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "serve/campaign.hh"
#include "serve/result_io.hh"
#include "serve/session.hh"

using namespace ccnuma;
using namespace ccnuma::serve;

namespace
{

TEST(CampaignSpec, ParsesFullSpec)
{
    CampaignSpec s = parseCampaignSpec(
        "{\"name\": \"n\", \"apps\": [\"FFT\", \"LU\"], "
        "\"archs\": [\"HWC\", \"2PPC\"], \"scale\": 0.1, "
        "\"procs\": 32, \"seeds\": [1, 2], \"dataFactor\": 2.0, "
        "\"lineBytes\": 64, \"netLatencyTicks\": 28, "
        "\"shards\": 4, \"priority\": 2}");
    EXPECT_EQ(s.name, "n");
    ASSERT_EQ(s.apps.size(), 2u);
    ASSERT_EQ(s.archs.size(), 2u);
    EXPECT_EQ(s.archs[0], Arch::HWC);
    EXPECT_EQ(s.archs[1], Arch::TwoPPC);
    EXPECT_DOUBLE_EQ(s.scale, 0.1);
    EXPECT_EQ(s.procs, 32u);
    ASSERT_EQ(s.seeds.size(), 2u);
    EXPECT_EQ(s.lineBytes, 64u);
    EXPECT_EQ(s.netLatencyTicks, 28u);
    EXPECT_EQ(s.shards, 4u);
    EXPECT_EQ(s.priority, 2u);
    EXPECT_EQ(s.numPoints(), 8u);
}

TEST(CampaignSpec, DefaultsApply)
{
    CampaignSpec s = parseCampaignSpec("{\"apps\": [\"FFT\"]}");
    EXPECT_EQ(s.archs.size(), 4u); // all four architectures
    EXPECT_EQ(s.seeds.size(), 1u);
    EXPECT_DOUBLE_EQ(s.scale, 0.5);
    EXPECT_EQ(s.procs, 64u);
    EXPECT_EQ(s.priority, 0u);
}

TEST(CampaignSpec, RejectsInvalidSpecs)
{
    EXPECT_THROW(parseCampaignSpec("not json"), CampaignError);
    EXPECT_THROW(parseCampaignSpec("[]"), CampaignError);
    EXPECT_THROW(parseCampaignSpec("{}"), CampaignError);
    EXPECT_THROW(parseCampaignSpec("{\"apps\": []}"),
                 CampaignError);
    EXPECT_THROW(parseCampaignSpec("{\"apps\": [\"NoSuchApp\"]}"),
                 CampaignError);
    EXPECT_THROW(
        parseCampaignSpec(
            "{\"apps\": [\"FFT\"], \"archs\": [\"PP\"]}"),
        CampaignError);
    EXPECT_THROW(
        parseCampaignSpec("{\"apps\": [\"FFT\"], \"scale\": 0}"),
        CampaignError);
    EXPECT_THROW(
        parseCampaignSpec("{\"apps\": [\"FFT\"], \"scale\": 9}"),
        CampaignError);
    EXPECT_THROW(
        parseCampaignSpec("{\"apps\": [\"FFT\"], \"procs\": 0}"),
        CampaignError);
    EXPECT_THROW(
        parseCampaignSpec(
            "{\"apps\": [\"FFT\"], \"lineBytes\": 96}"),
        CampaignError);
    EXPECT_THROW(
        parseCampaignSpec(
            "{\"apps\": [\"FFT\"], \"priority\": 3}"),
        CampaignError);
    EXPECT_THROW(
        parseCampaignSpec(
            "{\"apps\": [\"FFT\"], \"seeds\": \"12\"}"),
        CampaignError);
}

TEST(CampaignExpand, GridOrderAndConventions)
{
    CampaignSpec s = parseCampaignSpec(
        "{\"apps\": [\"FFT\", \"LU\"], "
        "\"archs\": [\"HWC\", \"PPC\"], \"scale\": 0.05, "
        "\"procs\": 64, \"seeds\": [1, 2]}");
    std::vector<SimPoint> points = expandCampaign(s);
    ASSERT_EQ(points.size(), 8u);

    // App-major, then arch, then seed.
    EXPECT_EQ(points[0].app, "FFT");
    EXPECT_EQ(points[0].wp.seed, 1u);
    EXPECT_EQ(points[1].wp.seed, 2u);
    EXPECT_EQ(points[2].cfg.node.cc.engineType, EngineType::PP);
    EXPECT_EQ(points[4].app, "LU");

    // FFT gets all 64 procs; LU honors the paper's 32-proc cap.
    EXPECT_EQ(points[0].wp.numThreads, 64u);
    EXPECT_EQ(points[4].wp.numThreads, 32u);

    // Distinct seeds must produce distinct cache keys.
    EXPECT_NE(points[0].key().hash, points[1].key().hash);
}

TEST(CampaignExpand, TweaksApplyToTheConfig)
{
    CampaignSpec s = parseCampaignSpec(
        "{\"apps\": [\"FFT\"], \"archs\": [\"HWC\"], "
        "\"lineBytes\": 32, \"netLatencyTicks\": 28}");
    std::vector<SimPoint> points = expandCampaign(s);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].cfg.node.lineBytes, 32u);
    EXPECT_EQ(points[0].wp.lineBytes, 32u); // post-tweak line size
    EXPECT_EQ(points[0].cfg.net.flightLatency, 28u);
}

/**
 * The key names the simulation that runs. CCNUMA_RELIABLE changes
 * what Machine simulates, so it must change the key exactly as
 * withReliableTransport() does.
 */
TEST(PointKey, EnvOverridesReachTheKey)
{
    const SimPoint plain = makeSimPoint("FFT", Arch::PPC, 16, 0.05);
    SimPoint reliable = plain;
    reliable.cfg.withReliableTransport();
    const PointKey unset_key = plain.key();
    const Tick unset_ticks = SimSession{}.run(plain).execTicks;

    struct UnsetOnExit
    {
        ~UnsetOnExit() { unsetenv("CCNUMA_RELIABLE"); }
    } unset_on_exit;
    ASSERT_EQ(setenv("CCNUMA_RELIABLE", "1", 1), 0);
    EXPECT_EQ(plain.key().hash, reliable.key().hash);
    EXPECT_EQ(plain.key().canonical, reliable.key().canonical);
    EXPECT_NE(plain.key().hash, unset_key.hash);
    EXPECT_NE(SimSession{}.run(plain).execTicks, unset_ticks);
}

/**
 * A shard request that falls back to serial (first-touch placement
 * here) simulates exactly what plain serial does, so it shares plain
 * serial's key -- not that of the deferred-grant serial oracle, which
 * simulates a different run.
 */
TEST(PointKey, SerialFallbackKeysAsSerial)
{
    auto first_touch = [](MachineConfig &c) {
        c.placement = PlacementPolicy::FirstTouch;
    };
    const SimPoint serial =
        makeSimPoint("FFT", Arch::PPC, 16, 0.05, 1.0, first_touch);
    const SimPoint fallback =
        makeSimPoint("FFT", Arch::PPC, 16, 0.05, 1.0, first_touch, 4);
    SimPoint oracle = serial;
    oracle.cfg.forceSyncDefer = true;
    ASSERT_EQ(fallback.cfg.shards, 4u);
    EXPECT_EQ(fallback.key().hash, serial.key().hash);
    EXPECT_EQ(fallback.key().canonical, serial.key().canonical);
    EXPECT_NE(fallback.key().hash, oracle.key().hash);

    SimSession session;
    const RunResult fell_back = session.run(fallback);
    EXPECT_EQ(fell_back.shardsUsed, 1u);
    EXPECT_EQ(fell_back.execTicks, session.run(serial).execTicks);
    EXPECT_NE(fell_back.execTicks, session.run(oracle).execTicks);
}

/**
 * Trace replay changes what Cholesky simulates (CCNUMA_REPLAY=0 gives
 * a different schedule), so a point run without replay keys apart
 * from the replayed one. Replay on adds no row: keys persisted
 * before the row existed still hit.
 */
TEST(PointKey, ReplayOffChangesTheKey)
{
    const SimPoint pt = makeSimPoint("Cholesky", Arch::PPC, 16, 0.05);
    MachineConfig cfg = pt.cfg;
    cfg.withEnvOverrides();
    const PointKey on = makePointKey(cfg, pt.app, pt.wp, true);
    const PointKey off = makePointKey(cfg, pt.app, pt.wp, false);
    EXPECT_NE(on.hash, off.hash);
    EXPECT_NE(on.canonical, off.canonical);
    EXPECT_EQ(on.canonical, makePointKey(cfg, pt.app, pt.wp).canonical);
    const PointKey &live = globalReplayCache() ? on : off;
    EXPECT_EQ(pt.key().hash, live.hash);
    EXPECT_EQ(pt.key().canonical, live.canonical);
}

/**
 * The one-execution-path guarantee, end to end: expanding a campaign
 * and running it through CampaignRunner + cache yields results
 * bit-identical to direct SimSession runs of the same points —
 * 2 kernels x 2 architectures.
 */
TEST(CampaignIdentity, ServedEqualsDirectTwoKernelsTwoArchs)
{
    CampaignSpec s = parseCampaignSpec(
        "{\"apps\": [\"FFT\", \"LU\"], "
        "\"archs\": [\"HWC\", \"PPC\"], \"scale\": 0.05, "
        "\"procs\": 16}");
    std::vector<SimPoint> points = expandCampaign(s);
    ASSERT_EQ(points.size(), 4u);

    ResultCache cache(1 << 20);
    CampaignRunner runner(2, &cache);
    std::vector<PointOutcome> served = runner.run(points);
    ASSERT_EQ(served.size(), points.size());

    SimSession session;
    for (std::size_t i = 0; i < points.size(); ++i) {
        RunResult direct = session.run(points[i]);
        EXPECT_TRUE(resultsIdentical(served[i].result, direct))
            << points[i].app << " point " << i
            << ": served result differs from a direct run";
    }

    // Running the same campaign again is served without simulating.
    std::vector<PointOutcome> again = runner.run(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_TRUE(again[i].fromCache);
        EXPECT_TRUE(
            resultsIdentical(again[i].result, served[i].result));
    }
    EXPECT_EQ(cache.stats().hits, points.size());
}

/**
 * Pre-refactor goldens: these exact numbers were produced by the
 * bench harness BEFORE it was rebased onto the serve backend
 * (bench_fig6_base at --scale=0.05 --procs=16). The refactor
 * promised byte-identical results; this pins it.
 *
 * execTicks re-pinned in PR 10: serial runs restored the seed's
 * zero-delay sync wakes, so serial cycle counts shifted slightly
 * (every other field is unchanged).
 */
TEST(CampaignIdentity, MatchesPreRefactorFig6Goldens)
{
    CampaignSpec s = parseCampaignSpec(
        "{\"apps\": [\"FFT\", \"LU\"], "
        "\"archs\": [\"HWC\", \"PPC\"], \"scale\": 0.05, "
        "\"procs\": 16}");
    std::vector<SimPoint> points = expandCampaign(s);
    CampaignRunner runner(2, nullptr);
    std::vector<PointOutcome> out = runner.run(points);
    ASSERT_EQ(out.size(), 4u);

    const RunResult &fft_hwc = out[0].result;
    EXPECT_EQ(fft_hwc.workload, "FFT-256");
    EXPECT_EQ(fft_hwc.execTicks, 17353u);
    EXPECT_EQ(fft_hwc.instructions, 31136u);
    EXPECT_EQ(fft_hwc.memRefs, 5024u);
    EXPECT_EQ(fft_hwc.misses, 949u);
    EXPECT_EQ(fft_hwc.ccRequests, 987u);
    EXPECT_EQ(fft_hwc.ccOccupancy, 26658u);

    const RunResult &fft_ppc = out[1].result;
    EXPECT_EQ(fft_ppc.execTicks, 30459u);
    EXPECT_EQ(fft_ppc.ccRequests, 982u);
    EXPECT_EQ(fft_ppc.ccOccupancy, 59018u);

    const RunResult &lu_hwc = out[2].result;
    EXPECT_EQ(lu_hwc.execTicks, 63257u);
    EXPECT_EQ(lu_hwc.instructions, 69312u);
    EXPECT_EQ(lu_hwc.memRefs, 3776u);
    EXPECT_EQ(lu_hwc.misses, 230u);
    EXPECT_EQ(lu_hwc.ccRequests, 203u);
    EXPECT_EQ(lu_hwc.ccOccupancy, 5902u);

    const RunResult &lu_ppc = out[3].result;
    EXPECT_EQ(lu_ppc.execTicks, 66649u);
    EXPECT_EQ(lu_ppc.ccRequests, 206u);
    EXPECT_EQ(lu_ppc.ccOccupancy, 12863u);
}

} // namespace
