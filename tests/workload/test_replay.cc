/**
 * @file
 * Trace-replay correctness: a captured reference stream must be
 * observationally identical to the coroutine it was recorded from —
 * op for op across every kernel and thread, and result for result
 * when driven through a whole Machine (including under seeded fault
 * injection, which perturbs timing but must never change which ops a
 * processor issues). The cache plumbing is covered too: single-flight
 * capture dedup, LRU eviction at the byte cap, disk persistence with
 * a fresh process's cold cache served from disk, and stale disk files
 * (identity-text mismatch) rejected and regenerated instead of
 * silently replayed.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "system/machine.hh"
#include "workload/replay.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace
{

WorkloadParams
tinyParams(unsigned threads = 4, double scale = 0.04)
{
    WorkloadParams p;
    p.numThreads = threads;
    p.scale = scale;
    return p;
}

/**
 * Identity text for a (kernel, params) pair. The cache compares
 * identities as opaque strings, so tests can use their own rendering
 * as long as it is injective over the workloads they create (the
 * campaign layer uses serve::canonicalWorkload, which renders every
 * WorkloadParams field the same way).
 */
std::string
identityOf(const std::string &app, const WorkloadParams &p)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s/t%u/s%.6f/d%.6f/l%u/seed%llu",
                  app.c_str(), p.numThreads, p.scale, p.dataFactor,
                  p.lineBytes, (unsigned long long)p.seed);
    return buf;
}

std::vector<ThreadOp>
drain(OpStream s)
{
    std::vector<ThreadOp> ops;
    ThreadOp op;
    while (s.next(op))
        ops.push_back(op);
    return ops;
}

bool
sameOp(const ThreadOp &a, const ThreadOp &b)
{
    return a.kind == b.kind && a.addr == b.addr && a.count == b.count;
}

/** RAII temporary directory for the persistence tests. */
struct TempDir
{
    std::filesystem::path path;

    TempDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("ccnuma_replay_test_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter()++));
        std::filesystem::create_directories(path);
    }

    ~TempDir() { std::filesystem::remove_all(path); }

    static unsigned &
    counter()
    {
        static unsigned n = 0;
        return n;
    }
};

class ReplayKernels : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ReplayKernels, CapturedStreamMatchesFreshGenerationOpForOp)
{
    const WorkloadParams p = tinyParams();
    auto captured = makeWorkload(GetParam(), p);
    auto buf = captureWorkload(*captured, identityOf(GetParam(), p));
    ASSERT_EQ(buf->threads.size(), p.numThreads);
    EXPECT_GT(buf->ops(), 0u);
    EXPECT_EQ(buf->bytes(),
              buf->ops() * sizeof(ThreadOp));

    ReplayWorkload replayed(makeWorkload(GetParam(), p), buf);
    auto fresh = makeWorkload(GetParam(), p);
    for (unsigned tid = 0; tid < p.numThreads; ++tid) {
        std::vector<ThreadOp> want = drain(fresh->thread(tid));
        std::vector<ThreadOp> got = drain(replayed.thread(tid));
        ASSERT_EQ(got.size(), want.size()) << "thread " << tid;
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_TRUE(sameOp(got[i], want[i]))
                << GetParam() << " thread " << tid << " op " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ReplayKernels,
                         ::testing::ValuesIn(splashNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return n;
                         });

TEST(Replay, MachineRunBitIdenticalUnderReplay)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 2;
    cfg.withArch(Arch::PPC);
    const WorkloadParams p =
        tinyParams(cfg.totalProcs(), 0.05);

    auto generated = makeWorkload("FFT", p);
    Machine m1(cfg);
    RunResult direct = m1.run(*generated);

    auto source = makeWorkload("FFT", p);
    auto buf = captureWorkload(*source, identityOf("FFT", p));
    ReplayWorkload replayed(makeWorkload("FFT", p), buf);
    Machine m2(cfg);
    RunResult viaReplay = m2.run(replayed);

    EXPECT_EQ(direct.instructions, viaReplay.instructions);
    EXPECT_EQ(direct.execTicks, viaReplay.execTicks);
    EXPECT_EQ(direct.memRefs, viaReplay.memRefs);
}

TEST(Replay, SeededFaultCampaignComposesWithReplay)
{
    // Fault injection perturbs *timing* (seeded delay jitter and
    // engine stalls), not the reference stream, so a fault campaign
    // driven from a replayed trace must reproduce the generated-trace
    // run exactly, seed for seed.
    auto campaign = [](bool replay) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            MachineConfig cfg = MachineConfig::base();
            cfg.numNodes = 2;
            cfg.node.procsPerNode = 2;
            cfg.withArch(Arch::PPC);
            cfg.verify.faults.seed = seed;
            cfg.verify.faults.delayJitterProb = 0.3;
            cfg.verify.faults.delayJitterMax = 200;
            const WorkloadParams p =
                tinyParams(cfg.totalProcs(), 0.04);
            Machine m(cfg);
            RunResult r;
            if (replay) {
                auto src = makeWorkload("Radix", p);
                auto buf =
                    captureWorkload(*src, identityOf("Radix", p));
                ReplayWorkload w(makeWorkload("Radix", p), buf);
                r = m.run(w);
            } else {
                auto w = makeWorkload("Radix", p);
                r = m.run(*w);
            }
            EXPECT_GT(r.instructions, 0u);
            out.emplace_back(r.instructions, r.execTicks);
        }
        return out;
    };
    EXPECT_EQ(campaign(false), campaign(true));
}

TEST(Replay, CacheServesSecondAcquireFromMemory)
{
    ReplayCache cache(64 << 20);
    const WorkloadParams p = tinyParams();
    const std::string id = identityOf("LU", p);
    auto make = [&] { return makeWorkload("LU", p); };

    auto first = cache.acquire(id, make);
    auto second = cache.acquire(id, make);
    EXPECT_EQ(first.get(), second.get());

    ReplayStats st = cache.stats();
    EXPECT_EQ(st.captures, 1u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.entries, 1u);
    EXPECT_EQ(st.bytes, first->bytes());
    EXPECT_DOUBLE_EQ(st.hitRate(), 0.5);
}

TEST(Replay, ConcurrentAcquiresShareOneCapture)
{
    ReplayCache cache(64 << 20);
    const WorkloadParams p = tinyParams();
    const std::string id = identityOf("FFT", p);
    std::vector<std::shared_ptr<const ReplayBuffer>> got(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < got.size(); ++i) {
        threads.emplace_back([&, i] {
            got[i] = cache.acquire(
                id, [&] { return makeWorkload("FFT", p); });
        });
    }
    for (auto &t : threads)
        t.join();
    for (const auto &b : got) {
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(b.get(), got[0].get());
    }
    EXPECT_EQ(cache.stats().captures, 1u);
}

TEST(Replay, ByteCapEvictsLeastRecentlyUsed)
{
    const WorkloadParams p = tinyParams();
    ReplayCache probe(1 << 30);
    auto one = probe.acquire(identityOf("FFT", p),
                             [&] { return makeWorkload("FFT", p); });

    // Capacity for one trace of this size, nowhere near two.
    ReplayCache cache(one->bytes() + one->bytes() / 2);
    cache.acquire(identityOf("FFT", p),
                  [&] { return makeWorkload("FFT", p); });
    cache.acquire(identityOf("Radix", p),
                  [&] { return makeWorkload("Radix", p); });
    EXPECT_GE(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().bytes, one->bytes() + one->bytes() / 2);

    // The evicted identity is regenerated, not wrongly served.
    cache.acquire(identityOf("FFT", p),
                  [&] { return makeWorkload("FFT", p); });
    EXPECT_EQ(cache.stats().captures, 3u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(Replay, DiskPersistServesColdCache)
{
    TempDir dir;
    const WorkloadParams p = tinyParams();
    const std::string id = identityOf("Cholesky", p);
    auto make = [&] { return makeWorkload("Cholesky", p); };

    ReplayCache warm(64 << 20, dir.path.string());
    auto captured = warm.acquire(id, make);
    EXPECT_EQ(warm.stats().captures, 1u);
    ASSERT_FALSE(
        std::filesystem::is_empty(dir.path));

    // A new cache (fresh process, in spirit) must serve the identity
    // from disk without running the generator.
    ReplayCache cold(64 << 20, dir.path.string());
    auto loaded = cold.acquire(id, make);
    EXPECT_EQ(cold.stats().captures, 0u);
    EXPECT_EQ(cold.stats().diskHits, 1u);
    ASSERT_EQ(loaded->threads.size(), captured->threads.size());
    for (std::size_t t = 0; t < loaded->threads.size(); ++t) {
        ASSERT_EQ(loaded->threads[t].size(),
                  captured->threads[t].size());
        for (std::size_t i = 0; i < loaded->threads[t].size(); ++i) {
            ASSERT_TRUE(
                sameOp(loaded->threads[t][i], captured->threads[t][i]))
                << "thread " << t << " op " << i;
        }
    }
    EXPECT_EQ(loaded->identity, id);
}

TEST(Replay, StaleDiskFileRejectedAndRegenerated)
{
    // Hashes only *name* disk files; the identity text stored inside
    // is what gets trusted. Cross-wire two identities' files so the
    // requested name holds the wrong trace: the load must be counted
    // as a stale reject and the trace regenerated, never replayed.
    TempDir dirA, dirB;
    const WorkloadParams p = tinyParams();
    const std::string idA = identityOf("FFT", p);
    const std::string idB = identityOf("Barnes", p);

    {
        ReplayCache a(64 << 20, dirA.path.string());
        a.acquire(idA, [&] { return makeWorkload("FFT", p); });
        ReplayCache b(64 << 20, dirB.path.string());
        b.acquire(idB, [&] { return makeWorkload("Barnes", p); });
    }
    std::filesystem::path fileA, fileB;
    for (const auto &e :
         std::filesystem::directory_iterator(dirA.path))
        fileA = e.path();
    for (const auto &e :
         std::filesystem::directory_iterator(dirB.path))
        fileB = e.path();
    ASSERT_FALSE(fileA.empty());
    ASSERT_FALSE(fileB.empty());
    // idB's file name now holds idA's payload.
    std::filesystem::copy_file(
        fileA, fileB,
        std::filesystem::copy_options::overwrite_existing);

    ReplayCache victim(64 << 20, dirB.path.string());
    auto buf = victim.acquire(
        idB, [&] { return makeWorkload("Barnes", p); });
    EXPECT_EQ(victim.stats().staleRejects, 1u);
    EXPECT_EQ(victim.stats().diskHits, 0u);
    EXPECT_EQ(victim.stats().captures, 1u);
    EXPECT_EQ(buf->identity, idB);

    // Regeneration also rewrote the stale file: a fresh cache now
    // loads the *correct* trace from disk.
    ReplayCache healed(64 << 20, dirB.path.string());
    healed.acquire(idB, [&] { return makeWorkload("Barnes", p); });
    EXPECT_EQ(healed.stats().diskHits, 1u);
    EXPECT_EQ(healed.stats().staleRejects, 0u);
}

TEST(Replay, TruncatedDiskFileIsIgnored)
{
    TempDir dir;
    const WorkloadParams p = tinyParams();
    const std::string id = identityOf("Ocean", p);
    {
        ReplayCache warm(64 << 20, dir.path.string());
        warm.acquire(id, [&] { return makeWorkload("Ocean", p); });
    }
    std::filesystem::path file;
    for (const auto &e :
         std::filesystem::directory_iterator(dir.path))
        file = e.path();
    ASSERT_FALSE(file.empty());
    std::filesystem::resize_file(file, 12);

    ReplayCache cold(64 << 20, dir.path.string());
    auto buf = cold.acquire(
        id, [&] { return makeWorkload("Ocean", p); });
    EXPECT_EQ(cold.stats().diskHits, 0u);
    EXPECT_EQ(cold.stats().captures, 1u);
    EXPECT_GT(buf->ops(), 0u);
}

/**
 * CCNUMA_REPLAY is parsed like every other on/off knob: 0 and off
 * disable the cache, 1 and on keep it, and anything else warns and
 * keeps it. The process-wide cache is configured once, at first use,
 * so each value is tried in a freshly started process.
 */
TEST(ReplayDeathTest, OnOffKnobParsedLikeEveryOther)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    auto exit_replaying = [](const char *value) {
        setenv("CCNUMA_REPLAY", value, 1);
        std::exit(globalReplayCache() != nullptr ? 1 : 0);
    };
    EXPECT_EXIT(exit_replaying("off"), testing::ExitedWithCode(0), "");
    EXPECT_EXIT(exit_replaying("0"), testing::ExitedWithCode(0), "");
    EXPECT_EXIT(exit_replaying("on"), testing::ExitedWithCode(1), "");
    EXPECT_EXIT(exit_replaying("1"), testing::ExitedWithCode(1), "");
    EXPECT_EXIT(exit_replaying("no"), testing::ExitedWithCode(1),
                "CCNUMA_REPLAY=no not recognized");
}

} // namespace
} // namespace ccnuma
