/**
 * @file
 * simbench: the measuring program of the simulator benchmark.
 *
 * It drives the simulator through its public API only and prints one
 * JSON document on stdout. simbench/run.py builds it, runs it, checks
 * the results, and reduces them to the metrics BENCHMARK.json names.
 *
 *   simbench run --workload W --seed S --seconds T
 *       The untraced batch repeated until T seconds have passed, with
 *       build-only passes (the workload and Machine constructors of
 *       every point) between the batches, then the drain oracle on
 *       the first batch. Prints each point's host time in every batch
 *       and pass, peak RSS and the simulated results.
 *
 *   simbench traced --workload W --seed S --seconds T --out DIR
 *       The traced batch, repeated until T seconds have passed: the
 *       same public calls made one at a time under benchmark spans
 *       (point > workload.make, workload.drain, system.build,
 *       system.run, collect), with the obs tracer on, and every
 *       component's stats read by name after each point. Prints each
 *       point's span totals and self times in every batch, and writes
 *       the spans to DIR/<W>.spans.json as Chrome trace-event JSON
 *       (Perfetto loads it). The obs tracer's own Chrome trace of the
 *       last point goes to DIR/<W>.obs_trace.json, written by an
 *       untimed rerun of that point after the batches.
 *
 * A workload is a closed batch: its points run back to back on one
 * thread, each on a freshly built Machine whose caches start empty.
 * Every batch after the first must reproduce the first one's simulated
 * results exactly. In both modes batch 0 warms up and is not timed;
 * after it, host times are kept per point, beside the times of a
 * host-speed probe run between the points, from which run.py scales
 * them to the reference host's speed.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/tracer.hh"
#include "report/json.hh"
#include "serve/session.hh"
#include "sim/stats.hh"
#include "system/machine.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

namespace
{

using namespace ccnuma;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

volatile std::uint64_t probeSink;

/**
 * The host-speed probe: a fixed piece of simulator-like host work.
 * Timed events are popped from a heap and dispatched through a
 * handler table to the set-associative tag arrays of 64 caches and to
 * a directory hash map. The host's slow spells slow it nearly as much
 * as they slow the simulator, where plain arithmetic or pointer-chasing
 * loops do not follow the simulator (README, Host and noise). It lives
 * here, not in the simulator, so that no change to the simulator moves
 * it.
 * @return its host seconds
 */
double
probeSeconds()
{
    constexpr unsigned cpus = 64, sets = 512, ways = 4, events = 300000;
    constexpr std::uint64_t lines = 40000;
    struct Ev
    {
        std::uint64_t t;
        std::uint32_t who, kind;
    };
    auto later = [](const Ev &a, const Ev &b) { return a.t > b.t; };

    const auto t0 = Clock::now();
    std::vector<Ev> heap;
    std::vector<std::uint64_t> tags(cpus * sets * ways);
    std::unordered_map<std::uint64_t, std::uint64_t> dir;
    std::uint64_t rng = 99, hits = 0;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    auto push = [&](Ev e) {
        heap.push_back(e);
        std::push_heap(heap.begin(), heap.end(), later);
    };
    auto access = [&](const Ev &e, bool write) {
        const std::uint64_t line = next() % lines;
        std::uint64_t *set = &tags[(e.who * sets + line % sets) * ways];
        if (!write && std::find(set, set + ways, line + 1) != set + ways) {
            ++hits;
            push({e.t + 2, e.who, static_cast<std::uint32_t>(next() % 2)});
            return;
        }
        set[next() % ways] = line + 1;
        std::uint64_t &sharers = dir[line];
        sharers = (write ? 0 : sharers) | std::uint64_t{1} << e.who;
        push({e.t + 100 + next() % 50, e.who, 2});
    };
    const std::function<void(const Ev &)> handlers[] = {
        [&](const Ev &e) { access(e, false); },
        [&](const Ev &e) { access(e, true); },
        [&](const Ev &e) {
            push({e.t + 20 + next() % 30, e.who,
                  static_cast<std::uint32_t>(next() % 2)});
        },
    };
    for (std::uint32_t p = 0; p < cpus; ++p)
        push({p, p, 0});
    for (unsigned i = 0; i < events; ++i) {
        std::pop_heap(heap.begin(), heap.end(), later);
        const Ev e = heap.back();
        heap.pop_back();
        handlers[e.kind](e);
    }
    probeSink = hits + dir.size();
    return secondsBetween(t0, Clock::now());
}

/** Share of a run's measured host time that goes to the probe. */
constexpr double probeShare = 0.1;

/**
 * Probe repetitions spread over the measured part of a run: between
 * points, whenever the probe has had less than its share of the time
 * since @p begin, so that they sample the host over the same stretch as
 * the measured batches.
 */
class HostProbe
{
  public:
    explicit HostProbe(Clock::time_point begin) : begin_(begin) {}

    void
    keepUp()
    {
        while (spent_ < probeShare * secondsBetween(begin_, Clock::now())) {
            samples_.push_back(probeSeconds());
            spent_ += samples_.back();
        }
    }

    const std::vector<double> &samples() const { return samples_; }

  private:
    Clock::time_point begin_;
    std::vector<double> samples_;
    double spent_ = 0.0;
};

/** One point of a workload: a resolved SimPoint plus Uniform knobs. */
struct BenchPoint
{
    std::string label;
    serve::SimPoint sim;
    /** Built as a UniformWorkload with @c knobs, not by makeWorkload. */
    bool uniform = false;
    UniformWorkload::Knobs knobs;
};

/**
 * The benchmark's workloads. fig6_sweep is the paper's Figure 6 grid
 * at a quarter of the Table 5 data sets; the two Uniform points sit at
 * the two ends of the Figure 11/12 RCCPI axis.
 */
std::vector<BenchPoint>
makePoints(const std::string &workload, std::uint64_t seed)
{
    std::vector<BenchPoint> pts;
    if (workload == "fig6_sweep") {
        const Arch archs[] = {Arch::HWC, Arch::PPC, Arch::TwoHWC,
                              Arch::TwoPPC};
        // Architecture-major: the four points of a kernel, Radix's most
        // of all, fall at four moments of a batch, so that one slow
        // stretch of the host does not cover all of them.
        for (Arch a : archs) {
            for (const std::string &app : splashNames()) {
                BenchPoint p;
                p.label = app + "/" + archName(a);
                p.sim = serve::makeSimPoint(
                    app, a, serve::procsForApp(app, 64), 0.25, 1.0,
                    nullptr, 1, seed);
                pts.push_back(std::move(p));
            }
        }
        return pts;
    }

    BenchPoint p;
    p.label = workload + "/PPC";
    p.uniform = true;
    p.sim = serve::makeSimPoint("Uniform", Arch::PPC, 64, 1.0, 1.0,
                                nullptr, 1, seed);
    if (workload == "coherence_storm") {
        // Mostly shared, write-heavy traffic over 1 MB: nearly every
        // reference misses L2 and goes through the protocol.
        p.knobs.refsPerThread = 6000;
        p.knobs.sharedFraction = 0.9;
        p.knobs.writeFraction = 0.4;
        p.knobs.sharedBytes = 1 << 20;
    } else if (workload == "read_shared") {
        // A cache-resident, widely read region with rare writes: the
        // processor hit path and op-stream generation dominate.
        p.knobs.refsPerThread = 100000;
        p.knobs.sharedFraction = 0.5;
        p.knobs.writeFraction = 0.0005;
        p.knobs.sharedBytes = 64 << 10;
        p.knobs.privateBytes = 8 << 10;
    } else {
        throw std::invalid_argument("unknown workload '" + workload +
                                    "'");
    }
    pts.push_back(std::move(p));
    return pts;
}

std::unique_ptr<Workload>
buildWorkload(const BenchPoint &p)
{
    if (p.uniform)
        return std::make_unique<UniformWorkload>(p.sim.wp, p.knobs);
    return makeWorkload(p.sim.app, p.sim.wp);
}

/** The untraced path: the one every paper bench and the daemon take. */
RunResult
runUntraced(const BenchPoint &p)
{
    if (!p.uniform)
        return serve::SimSession{}.run(p.sim);
    auto w = buildWorkload(p);
    Machine m(p.sim.cfg);
    return m.run(*w);
}

/** What a standalone drain of a workload's op streams contains. */
struct OpCounts
{
    std::uint64_t ops = 0;
    std::uint64_t compute = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t barriers = 0;
    std::uint64_t locks = 0; ///< lock and unlock operations

    /** Each barrier touches its flag line twice, a lock op once. */
    std::uint64_t
    memRefs() const
    {
        return loads + stores + 2 * barriers + locks;
    }

    std::uint64_t instructions() const { return compute + memRefs(); }
};

OpCounts
drain(Workload &w)
{
    OpCounts c;
    for (unsigned t = 0; t < w.numThreads(); ++t) {
        OpStream s = w.thread(t);
        ThreadOp op;
        while (s.next(op)) {
            ++c.ops;
            switch (op.kind) {
              case ThreadOp::Kind::Compute: c.compute += op.count; break;
              case ThreadOp::Kind::Load: ++c.loads; break;
              case ThreadOp::Kind::Store: ++c.stores; break;
              case ThreadOp::Kind::Barrier: ++c.barriers; break;
              case ThreadOp::Kind::Lock:
              case ThreadOp::Kind::Unlock: ++c.locks; break;
              case ThreadOp::Kind::End: break;
            }
        }
    }
    return c;
}

/** "" when @p r retired exactly what the drain implies. */
std::string
oracleError(const RunResult &r, const OpCounts &c)
{
    if (!r.completed)
        return "run did not complete";
    if (r.instructions != c.instructions() || r.memRefs != c.memRefs()) {
        return "retired " + std::to_string(r.instructions) +
               " instructions / " + std::to_string(r.memRefs) +
               " refs; the op streams imply " +
               std::to_string(c.instructions()) + " / " +
               std::to_string(c.memRefs());
    }
    return "";
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** The simulated result fields of the paper's measurement set. */
void
writeResult(report::JsonWriter &j, const RunResult &r)
{
    j.beginObject();
    j.key("workload").value(r.workload);
    j.key("arch").value(r.arch);
    j.key("completed").value(r.completed);
    j.key("execTicks").value(static_cast<std::uint64_t>(r.execTicks));
    j.key("instructions").value(r.instructions);
    j.key("memRefs").value(r.memRefs);
    j.key("misses").value(r.misses);
    j.key("ccRequests").value(r.ccRequests);
    j.key("ccOccupancy").value(static_cast<std::uint64_t>(r.ccOccupancy));
    j.key("avgUtilization").valueFull(r.avgUtilization);
    j.key("avgQueueDelayTicks").valueFull(r.avgQueueDelayTicks);
    j.key("arrivalsPerUs").valueFull(r.arrivalsPerUs);
    j.endObject();
}

using StatMap = std::map<std::string, double>;

void
writeStatMap(report::JsonWriter &j, const StatMap &m)
{
    j.beginObject();
    for (const auto &[k, v] : m)
        j.key(k).valueFull(v);
    j.endObject();
}

void
writeSeconds(report::JsonWriter &j, const std::vector<double> &xs)
{
    j.beginArray();
    for (double x : xs)
        j.valueFull(x);
    j.endArray();
}

/** A span name's host seconds in each batch, for one point. */
struct SpanTimes
{
    std::vector<double> total;
    std::vector<double> self; ///< total minus the child spans
};

/** One point's outcome over every batch of a run. */
struct PointState
{
    bool have = false;  ///< the first batch produced a result
    RunResult result;   ///< the first batch's result
    StatMap counters;   ///< the first batch's counters (traced)
    std::string digest; ///< text of the two above
    std::string error;  ///< the first failure seen
    unsigned failedBatches = 0;
    std::vector<double> wall;  ///< host seconds in each batch
    std::vector<double> setup; ///< host seconds in each build-only pass
    std::map<std::string, SpanTimes> spans; ///< traced, by span name

    void
    fail(const std::string &why)
    {
        if (error.empty())
            error = why;
        ++failedBatches;
    }

    /** Keep batch @p b's outcome, or check it against batch 0's. */
    void
    note(unsigned b, const RunResult &r, const StatMap &c)
    {
        std::ostringstream os;
        report::JsonWriter j(os);
        writeResult(j, r);
        writeStatMap(j, c);
        if (b == 0) {
            have = true;
            result = r;
            counters = c;
            digest = os.str();
        } else if (!have || os.str() != digest) {
            fail("batch " + std::to_string(b) +
                 " simulated other results than batch 0");
        }
    }
};

void
writePoints(report::JsonWriter &j, const std::vector<BenchPoint> &pts,
            const std::vector<PointState> &st, bool traced)
{
    j.key("points").beginArray();
    for (std::size_t i = 0; i < pts.size(); ++i) {
        j.beginObject();
        j.key("label").value(pts[i].label);
        j.key("error").value(st[i].error);
        j.key("failed_batches").value(st[i].failedBatches);
        j.key("result");
        writeResult(j, st[i].result);
        if (traced) {
            j.key("counters");
            writeStatMap(j, st[i].counters);
            j.key("spans").beginObject();
            for (const auto &[name, t] : st[i].spans) {
                j.key(name).beginObject();
                j.key("total_s");
                writeSeconds(j, t.total);
                j.key("self_s");
                writeSeconds(j, t.self);
                j.endObject();
            }
            j.endObject();
        } else {
            j.key("wall_s");
            writeSeconds(j, st[i].wall);
            j.key("setup_s");
            writeSeconds(j, st[i].setup);
        }
        j.endObject();
    }
    j.endArray();
}

struct Options
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = WorkloadParams{}.seed;
    double seconds = 0.0; ///< repeat batches until this much time passed
    std::string outDir = ".";
};

// ---------------------------------------------------------------------
// run: untraced batches between build-only passes, drain oracle
// ---------------------------------------------------------------------

/** Share of a run's host time that goes to build-only passes. */
constexpr double setupShare = 0.05;

/** The constructors SimSession::run calls, timed on their own. */
std::vector<double>
buildOnlyPass(const std::vector<BenchPoint> &pts)
{
    std::vector<double> s;
    for (const BenchPoint &p : pts) {
        auto t0 = Clock::now();
        auto w = buildWorkload(p);
        Machine m(p.sim.cfg);
        s.push_back(secondsBetween(t0, Clock::now()));
    }
    return s;
}

int
runMode(const Options &o)
{
    const std::vector<BenchPoint> pts = makePoints(o.workload, o.seed);

    std::vector<PointState> st(pts.size());
    // Times are kept only when a probe samples the host alongside.
    auto batch = [&](unsigned b, HostProbe *probe) {
        for (std::size_t i = 0; i < pts.size(); ++i) {
            if (probe)
                probe->keepUp();
            auto t0 = Clock::now();
            try {
                RunResult r = runUntraced(pts[i]);
                if (probe)
                    st[i].wall.push_back(secondsBetween(t0, Clock::now()));
                st[i].note(b, r, {});
            } catch (const std::exception &e) {
                st[i].fail(e.what());
            }
        }
    };

    // Batch 0 warms up the allocator, the replay cache and the host's
    // caches: its results are checked, its times are not kept.
    buildOnlyPass(pts);
    batch(0, nullptr);
    unsigned batches = 1;

    const auto begin = Clock::now();
    HostProbe probe(begin);
    double setupWall = 0.0; ///< host time of the passes, teardown too
    do {
        // At least one build-only pass before each batch, and more
        // until the passes have had their share of the run so far:
        // spread over the run, they sample the same host as the
        // batches do.
        do {
            auto t0 = Clock::now();
            const std::vector<double> s = buildOnlyPass(pts);
            for (std::size_t i = 0; i < pts.size(); ++i)
                st[i].setup.push_back(s[i]);
            setupWall += secondsBetween(t0, Clock::now());
        } while (setupWall <
                 setupShare * secondsBetween(begin, Clock::now()));

        batch(batches++, &probe);
    } while (secondsBetween(begin, Clock::now()) < o.seconds);

    // Oracle, outside the timed batches: one drain per op-stream
    // identity (the four architectures of a kernel share one). Later
    // batches reproduced the first, so its verdict covers them too.
    std::map<std::string, OpCounts> drained;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (!st[i].have)
            continue;
        const std::string id =
            pts[i].uniform ? o.workload : pts[i].sim.app;
        auto it = drained.find(id);
        if (it == drained.end())
            it = drained.emplace(id, drain(*buildWorkload(pts[i]))).first;
        std::string err = oracleError(st[i].result, it->second);
        if (!err.empty()) {
            st[i].error = err;
            st[i].failedBatches = batches;
        }
    }

    std::uint64_t refs = 0;
    for (const PointState &s : st)
        refs += s.result.memRefs;

    report::JsonWriter j(std::cout);
    j.beginObject();
    j.key("mode").value("run");
    j.key("workload").value(o.workload);
    j.key("seed").value(o.seed);
    j.key("batches").value(batches);
    j.key("refs").value(refs);
    j.key("peak_rss_mb").valueFull(peakRssMb());
    j.key("probe_s");
    writeSeconds(j, probe.samples());
    writePoints(j, pts, st, false);
    j.endObject();
    std::cout << "\n";
    return 0;
}

// ---------------------------------------------------------------------
// traced: spans around the calls into each layer, stats read by name
// ---------------------------------------------------------------------

/** Benchmark-side spans, kept in memory until the run ends. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0; ///< seconds since the log began
        double end = 0.0;
        int parent = -1;
        std::size_t point = 0;
        unsigned batch = 0;
    };

    int
    open(const char *name, int parent, std::size_t point, unsigned batch)
    {
        spans_.push_back({name, now(), 0.0, parent, point, batch});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id) { spans_[id].end = now(); }

    /**
     * Each point's total and self time per span name in each of
     * batches 1 to @p batches - 1 (batch 0 warms up). Self time is a
     * span's duration minus what its children cover; children run in
     * sequence, so they never overlap.
     */
    void
    addTo(std::vector<PointState> &st, unsigned batches) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        }
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.batch == 0)
                continue;
            SpanTimes &t = st.at(s.point).spans[s.name];
            t.total.resize(batches - 1, 0.0);
            t.self.resize(batches - 1, 0.0);
            const double dur = s.end - s.start;
            t.total.at(s.batch - 1) += dur;
            t.self.at(s.batch - 1) += dur - child[i];
        }
    }

    /** Chrome trace-event JSON, the format obs::ChromeTraceSink uses. */
    void
    writeChrome(std::ostream &os,
                const std::vector<BenchPoint> &pts) const
    {
        report::JsonWriter j(os);
        j.beginObject();
        j.key("displayTimeUnit").value("ms");
        j.key("traceEvents").beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            j.beginObject();
            j.key("name").value(s.name);
            j.key("cat").value("simbench");
            j.key("ph").value("X");
            j.key("ts").valueFull(s.start * 1e6);
            j.key("dur").valueFull((s.end - s.start) * 1e6);
            j.key("pid").value(1);
            j.key("tid").value(1);
            j.key("args").beginObject();
            j.key("id").value(static_cast<std::uint64_t>(i));
            j.key("parent").value(s.parent);
            j.key("point").value(pts.at(s.point).label);
            j.key("batch").value(s.batch);
            j.endObject();
            j.endObject();
        }
        j.endArray();
        j.endObject();
        os << "\n";
    }

  private:
    double now() const { return secondsBetween(origin_, Clock::now()); }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/**
 * Add every stat of @p g to @p acc under "<prefix>.<stat name>";
 * averages contribute their sample sum and count.
 */
void
addGroup(StatMap &acc, const std::string &prefix, const stats::Group &g)
{
    for (const stats::Stat *s : g.stats()) {
        const std::string key = prefix + "." + s->name();
        if (auto *sc = dynamic_cast<const stats::Scalar *>(s)) {
            acc[key] += sc->value();
        } else if (auto *av = dynamic_cast<const stats::Average *>(s)) {
            acc[key + ".sum"] += av->sum();
            acc[key + ".count"] += static_cast<double>(av->count());
        }
    }
}

double
statOf(const StatMap &m, const std::string &key)
{
    auto it = m.find(key);
    if (it == m.end())
        throw std::runtime_error("stat '" + key + "' not found");
    return it->second;
}

/** The tracer histograms pooled over a batch, for its quantiles. */
struct Pooled
{
    stats::Distribution queueWait{"", "", 10.0, 64};
    stats::Distribution missLatency{"", "", 50.0, 80};
};

/**
 * Every exact per-layer count of one point, read after its run, with
 * the point's tracer histograms folded into @p pooled.
 */
StatMap
collectCounters(Machine &m, const RunResult &r, const OpCounts &ops,
                Pooled &pooled)
{
    StatMap raw;
    m.network().syncStats();
    addGroup(raw, "net", m.network().statGroup());
    addGroup(raw, "sync", m.sync().statGroup());
    double snoop_probes = 0.0;
    double queue_delay = 0.0;
    double occupancy = 0.0;
    double capacity = 0.0;
    for (unsigned n = 0; n < m.numNodes(); ++n) {
        SmpNode &nd = m.node(n);
        StatMap bus;
        addGroup(bus, "bus", nd.bus().statGroup());
        // Each address phase is snooped by the node's cache units: the
        // L2 probes a presence filter would skip when the line is
        // absent.
        snoop_probes += statOf(bus, "bus.transactions") * nd.numProcs();
        for (const auto &[k, v] : bus)
            raw[k] += v;
        addGroup(raw, "mem", nd.memory().statGroup());
        addGroup(raw, "dir", nd.directory().statGroup());
        addGroup(raw, "cc", nd.cc().statGroup());
        for (unsigned i = 0; i < nd.numProcs(); ++i) {
            addGroup(raw, "proc", nd.proc(i).statGroup());
            addGroup(raw, "cache", nd.cacheUnit(i).statGroup());
        }
        CoherenceController &cc = nd.cc();
        occupancy += static_cast<double>(cc.totalOccupancy());
        capacity += static_cast<double>(r.execTicks) * cc.numEngines();
        queue_delay += cc.meanQueueDelay() *
                       static_cast<double>(cc.totalArrivals());
    }

    StatMap c;
    c["workload.ops"] = static_cast<double>(ops.ops);
    c["sim.events"] = static_cast<double>(m.eq().numProcessed());
    c["sim.max_pending"] = static_cast<double>(m.eq().maxPending());
    c["sim.exec_ticks"] = static_cast<double>(r.execTicks);

    c["node.mem_refs"] = static_cast<double>(r.memRefs);
    c["node.instructions"] = statOf(raw, "proc.instructions");
    c["node.l1_hits"] = statOf(raw, "cache.l1_hits");
    c["node.l2_hits"] = statOf(raw, "cache.l2_hits");
    c["node.l2_misses"] = statOf(raw, "cache.misses");
    c["node.cache_accesses"] =
        c["node.l1_hits"] + c["node.l2_hits"] + c["node.l2_misses"];
    c["node.upgrade_misses"] = statOf(raw, "cache.upgrade_misses");
    c["node.writebacks"] = statOf(raw, "cache.writebacks");
    c["node.stall_ticks"] = statOf(raw, "proc.stall_ticks");
    c["node.sync_wait_ticks"] = statOf(raw, "proc.sync_wait_ticks");
    c["node.barriers"] = statOf(raw, "sync.barriers");
    c["node.lock_handoffs"] = statOf(raw, "sync.lock_handoffs");

    c["bus.txns"] = statOf(raw, "bus.transactions");
    c["bus.snoop_probes"] = snoop_probes;
    c["bus.c2c"] = statOf(raw, "bus.cache_to_cache");
    c["bus.deferred"] = statOf(raw, "bus.deferred");
    c["bus.retries"] = statOf(raw, "bus.retries");
    c["bus.arb_wait_ticks"] = statOf(raw, "bus.arb_wait.sum");
    c["bus.data_busy_ticks"] = statOf(raw, "bus.data_busy_ticks");

    c["mem.reads"] = statOf(raw, "mem.reads");
    c["mem.writes"] = statOf(raw, "mem.writes");
    c["mem.bank_wait_ticks"] = statOf(raw, "mem.bank_wait.sum");

    c["net.msgs"] = statOf(raw, "net.messages");
    c["net.bytes"] = statOf(raw, "net.bytes");
    c["net.latency_ticks"] = statOf(raw, "net.latency.sum");
    c["net.ingress_wait_ticks"] = statOf(raw, "net.ingress_wait.sum");

    c["directory.reads"] = statOf(raw, "dir.reads");
    c["directory.writes"] = statOf(raw, "dir.writes");
    c["directory.cache_hits"] = statOf(raw, "dir.cache_hits");
    c["directory.lookups"] =
        c["directory.cache_hits"] + statOf(raw, "dir.cache_misses");

    c["cc.requests"] = statOf(raw, "cc.bus_requests") +
                       statOf(raw, "cc.net_requests") +
                       statOf(raw, "cc.net_responses");
    c["cc.occupancy_ticks"] = occupancy;
    c["cc.capacity_ticks"] = capacity;
    c["cc.queue_delay_ticks"] = queue_delay;
    c["cc.owner_nacks"] = statOf(raw, "cc.owner_nacks");
    c["cc.parked"] = statOf(raw, "cc.parked_requests");
    c["cc.merged"] = statOf(raw, "cc.merged_requests");
    c["cc.wb_stalls"] = statOf(raw, "cc.wb_stalls");

    obs::Tracer *t = m.tracer();
    if (!t)
        throw std::runtime_error("obs tracer is not on");
    double handlers = 0.0;
    double handler_ticks = 0.0;
    for (unsigned h = 0; h < numHandlers; ++h) {
        handlers += static_cast<double>(
            t->handlerCount(static_cast<HandlerId>(h)));
        handler_ticks += static_cast<double>(
            t->handlerTicks(static_cast<HandlerId>(h)));
    }
    c["protocol.handlers"] = handlers;
    c["protocol.handler_ticks"] = handler_ticks;
    c["protocol.bus_mem_wait_ticks"] =
        static_cast<double>(t->busMemWaitTicks());
    Pooled mine;
    for (unsigned n = 0; n < m.numNodes(); ++n) {
        for (unsigned e = 0; e < m.node(n).cc().numEngines(); ++e)
            mine.queueWait.merge(t->engineAgg(n, e).queueWait);
    }
    for (unsigned k = 0; k < obs::numReqClasses; ++k)
        mine.missLatency.merge(
            t->classLatency(static_cast<obs::ReqClass>(k)));
    c["protocol.queue_wait_p50_ticks"] = mine.queueWait.p50();
    c["protocol.queue_wait_p99_ticks"] = mine.queueWait.p99();
    c["protocol.miss_latency_p50_ticks"] = mine.missLatency.p50();
    c["protocol.miss_latency_p99_ticks"] = mine.missLatency.p99();
    pooled.queueWait.merge(mine.queueWait);
    pooled.missLatency.merge(mine.missLatency);
    c["obs.ring_dropped"] = static_cast<double>(t->ring().dropped());

    // The stats must agree with what Machine::run reported.
    auto agree = [&](const char *what, double stat, double result) {
        if (stat != result) {
            std::ostringstream os;
            os.precision(17);
            os << what << ": stats say " << stat << ", RunResult says "
               << result;
            throw std::runtime_error(os.str());
        }
    };
    agree("instructions", c["node.instructions"],
          static_cast<double>(r.instructions));
    agree("cache accesses", c["node.cache_accesses"],
          static_cast<double>(r.memRefs));
    agree("misses", statOf(raw, "proc.misses"),
          static_cast<double>(r.misses));
    agree("controller requests", c["cc.requests"],
          static_cast<double>(r.ccRequests));
    agree("controller occupancy", occupancy,
          static_cast<double>(r.ccOccupancy));
    return c;
}

/** Batch totals: counters add over points, except high-water marks. */
StatMap
batchCounters(const std::vector<PointState> &st, const Pooled &pooled)
{
    StatMap total;
    for (const PointState &s : st) {
        for (const auto &[k, v] : s.counters) {
            total[k] = k == "sim.max_pending" ? std::max(total[k], v)
                                              : total[k] + v;
        }
    }
    // Quantiles of the whole batch, not sums of per-point ones.
    total["protocol.queue_wait_p50_ticks"] = pooled.queueWait.p50();
    total["protocol.queue_wait_p99_ticks"] = pooled.queueWait.p99();
    total["protocol.miss_latency_p50_ticks"] = pooled.missLatency.p50();
    total["protocol.miss_latency_p99_ticks"] = pooled.missLatency.p99();
    return total;
}

/**
 * @p p's machine with the obs tracer on. The tracer records the same
 * events either way; it writes a Chrome trace at the end of the run
 * only when @p chromeTrace names a file.
 */
MachineConfig
tracedConfig(const BenchPoint &p, const std::string &chromeTrace)
{
    MachineConfig cfg = p.sim.cfg;
    cfg.obs.enabled = true;
    cfg.obs.chromeTraceFile = chromeTrace;
    cfg.obs.metricsFile = "";
    return cfg;
}

int
tracedMode(const Options &o)
{
    const std::vector<BenchPoint> pts = makePoints(o.workload, o.seed);

    SpanLog log;
    std::vector<PointState> st(pts.size());
    Pooled pooled; // first batch only, like the counters
    auto batch = [&](unsigned b, HostProbe *probe) {
        Pooled later;
        Pooled &pool = b == 0 ? pooled : later;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const BenchPoint &p = pts[i];
            if (probe)
                probe->keepUp();
            int point = log.open("point", -1, i, b);
            try {
                int s = log.open("workload.make", point, i, b);
                auto w = buildWorkload(p);
                log.close(s);

                // A copy of its own: some kernels hand out work from
                // host-side state that draining would use up.
                auto copy = buildWorkload(p);
                s = log.open("workload.drain", point, i, b);
                OpCounts ops = drain(*copy);
                log.close(s);

                s = log.open("system.build", point, i, b);
                auto m = std::make_unique<Machine>(tracedConfig(p, ""));
                log.close(s);

                s = log.open("system.run", point, i, b);
                RunResult r = m->run(*w);
                log.close(s);

                s = log.open("collect", point, i, b);
                StatMap c = collectCounters(*m, r, ops, pool);
                log.close(s);

                std::string err = oracleError(r, ops);
                if (err.empty())
                    st[i].note(b, r, c);
                else
                    st[i].fail(err);
            } catch (const std::exception &e) {
                st[i].fail(e.what());
            }
            log.close(point);
        }
    };

    // Batch 0 warms up, as in run mode: its spans go to the Chrome
    // trace, not into the per-point times.
    batch(0, nullptr);
    unsigned batches = 1;
    const auto begin = Clock::now();
    HostProbe probe(begin);
    do {
        batch(batches++, &probe);
    } while (secondsBetween(begin, Clock::now()) < o.seconds);
    log.addTo(st, batches);

    // The obs tracer's Chrome trace, from an untimed rerun of the last
    // point, so that no span pays for writing the file.
    if (st.back().have) {
        const BenchPoint &p = pts.back();
        Machine m(tracedConfig(
            p, o.outDir + "/" + o.workload + ".obs_trace.json"));
        m.run(*buildWorkload(p));
    }

    {
        std::ofstream os(o.outDir + "/" + o.workload + ".spans.json");
        if (!os)
            throw std::runtime_error("cannot write spans under " +
                                     o.outDir);
        log.writeChrome(os, pts);
    }

    report::JsonWriter j(std::cout);
    j.beginObject();
    j.key("mode").value("traced");
    j.key("workload").value(o.workload);
    j.key("seed").value(o.seed);
    j.key("batches").value(batches);
    j.key("probe_s");
    writeSeconds(j, probe.samples());
    j.key("counters");
    writeStatMap(j, batchCounters(st, pooled));
    writePoints(j, pts, st, true);
    j.endObject();
    std::cout << "\n";
    return 0;
}

int
usage()
{
    std::cerr << "usage: simbench run|traced --workload W --seed S "
                 "--seconds T [--out DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argc % 2 != 0)
        return usage();

    // glibc adapts its mmap and trim thresholds to the chunk sizes
    // freed so far. Whether a destroyed Machine's memory is reused or
    // handed back to the kernel, and faulted in again by the next
    // build, then depends on the heap's history, which differs from
    // seed to seed: on fig6_sweep a build pass took 0.05 s or 0.25 s.
    // Fixed thresholds keep freed memory in the process. (Sanitizer
    // allocators refuse them; the run is then valid, only noisier.)
    if (!mallopt(M_MMAP_THRESHOLD, 32 << 20) ||
        !mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max())) {
        std::cerr << "simbench: the malloc thresholds stay adaptive; "
                     "build times will depend on heap history\n";
    }

    Options o;
    o.mode = argv[1];
    try {
        for (int i = 2; i + 1 < argc; i += 2) {
            const std::string flag = argv[i];
            const std::string val = argv[i + 1];
            if (flag == "--workload")
                o.workload = val;
            else if (flag == "--seed")
                o.seed = std::stoull(val);
            else if (flag == "--seconds")
                o.seconds = std::stod(val);
            else if (flag == "--out")
                o.outDir = val;
            else
                return usage();
        }
        if (o.mode == "run")
            return runMode(o);
        if (o.mode == "traced")
            return tracedMode(o);
    } catch (const std::exception &e) {
        std::cerr << "simbench: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
