/**
 * @file
 * End-to-end export tests: a traced FFT run must produce
 * syntactically valid Chrome trace-event JSON with distinct
 * per-engine tracks, and the per-class latency aggregates must agree
 * with the independently measured processor stall time in the
 * bench_table3_readmiss scenario.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/sinks.hh"
#include "obs/tracer.hh"
#include "system/machine.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace
{

/**
 * Minimal recursive-descent JSON syntax checker (values, objects,
 * arrays, strings with escapes, numbers, true/false/null). The CI
 * workflow re-validates with Python's json module; this keeps the
 * check in-tree for plain ctest runs.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' ||
                s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << "missing " << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(TraceExport, TracedFftRunWritesValidJson)
{
    std::string trace = testing::TempDir() + "obs_fft_trace.json";
    std::string metrics = testing::TempDir() + "obs_fft_metrics.json";

    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 2;
    cfg.withArch(Arch::PPC);
    cfg.obs.enabled = true;
    cfg.obs.chromeTraceFile = trace;
    cfg.obs.metricsFile = metrics;
    Machine m(cfg);

    WorkloadParams wp;
    wp.numThreads = cfg.totalProcs();
    wp.scale = 0.05;
    auto w = makeWorkload("FFT", wp);
    RunResult r = m.run(*w, /*check=*/true);
    EXPECT_GT(r.instructions, 0u);

    std::string tj = slurp(trace);
    EXPECT_TRUE(JsonChecker(tj).valid()) << "trace JSON malformed";
    EXPECT_NE(tj.find("\"traceEvents\""), std::string::npos);
    // Per-engine tracks and processes exist.
    EXPECT_NE(tj.find("\"engine0\""), std::string::npos);
    EXPECT_NE(tj.find("\"node0\""), std::string::npos);
    EXPECT_NE(tj.find("\"node1\""), std::string::npos);
    // Drop accounting is exported, never silent.
    EXPECT_NE(tj.find("\"events_dropped\""), std::string::npos);

    std::string mj = slurp(metrics);
    EXPECT_TRUE(JsonChecker(mj).valid()) << "metrics JSON malformed";
    EXPECT_NE(mj.find("\"request_classes\""), std::string::npos);
    EXPECT_NE(mj.find("\"remote_read_clean\""), std::string::npos);
    EXPECT_NE(mj.find("\"utilization\""), std::string::npos);

    std::remove(trace.c_str());
    std::remove(metrics.c_str());
}

TEST(TraceExport, TwoEngineArchGetsDistinctLpeRpeTracks)
{
    std::string trace = testing::TempDir() + "obs_2ppc_trace.json";

    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 2;
    cfg.withArch(Arch::TwoPPC);
    cfg.obs.enabled = true;
    cfg.obs.chromeTraceFile = trace;
    cfg.obs.metricsFile = "";
    Machine m(cfg);

    WorkloadParams wp;
    wp.numThreads = cfg.totalProcs();
    wp.scale = 0.05;
    auto w = makeWorkload("FFT", wp);
    m.run(*w);

    std::string tj = slurp(trace);
    EXPECT_TRUE(JsonChecker(tj).valid());
    EXPECT_NE(tj.find("\"LPE\""), std::string::npos);
    EXPECT_NE(tj.find("\"RPE\""), std::string::npos);
    std::remove(trace.c_str());
}

TEST(TraceExport, CsvMetricsSuffixSwitchesFormat)
{
    std::string metrics = testing::TempDir() + "obs_metrics.csv";

    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 1;
    cfg.withArch(Arch::HWC);
    cfg.obs.enabled = true;
    cfg.obs.chromeTraceFile = "";
    cfg.obs.metricsFile = metrics;
    Machine m(cfg);

    std::vector<std::vector<ThreadOp>> scripts(2);
    scripts[0].push_back(ThreadOp::load(0x10'0000));
    WorkloadParams wp;
    wp.numThreads = 2;
    ScriptWorkload w(wp, scripts);
    m.run(w);

    std::string csv = slurp(metrics);
    EXPECT_NE(csv.find("metric,value"), std::string::npos);
    EXPECT_NE(csv.find("misses,"), std::string::npos);
    std::remove(metrics.c_str());
}

/**
 * The acceptance cross-check: in the bench_table3_readmiss scenario
 * (one read miss to a remote line clean at home, otherwise quiet
 * two-node machine), the tracer's remote_read_clean latency must
 * equal the processor's independently measured stall time.
 */
TEST(TraceExport, Table3ScenarioMatchesProcessorStallTime)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 1;
    cfg.withArch(Arch::PPC);
    cfg.obs.enabled = true;
    cfg.obs.chromeTraceFile = "";
    cfg.obs.metricsFile = "";
    Machine m(cfg);

    // First address whose home is node 1 (same search as the bench).
    Addr target = 0x10'0000;
    while (m.map().homeOf(target) != 1)
        target += cfg.pageBytes;

    std::vector<std::vector<ThreadOp>> scripts(2);
    scripts[0].push_back(ThreadOp::load(target));
    WorkloadParams wp;
    wp.numThreads = 2;
    ScriptWorkload w(wp, scripts);
    m.run(w);

    obs::Tracer *t = m.tracer();
    ASSERT_NE(t, nullptr);
    const auto &d =
        t->classLatency(obs::ReqClass::RemoteReadClean);
    ASSERT_EQ(d.count(), 1u);
    EXPECT_DOUBLE_EQ(
        d.mean(), static_cast<double>(m.proc(0).stallTicks()));
    // And that one latency is the paper's Table 3 PPC total.
    EXPECT_DOUBLE_EQ(d.mean(), 212.0);
}

/**
 * Warm-up exclusion end to end: Machine::resetStats() mid-run clears
 * the tracer, and nothing recorded afterwards predates the reset.
 */
TEST(TraceExport, MidRunResetDropsPreResetSpans)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 2;
    cfg.withArch(Arch::PPC);
    cfg.obs.enabled = true;
    cfg.obs.chromeTraceFile = "";
    cfg.obs.metricsFile = "";
    Machine m(cfg);

    WorkloadParams wp;
    wp.numThreads = cfg.totalProcs();
    wp.scale = 0.05;
    auto w = makeWorkload("FFT", wp);

    // Reset all measurements mid-run (warm-up exclusion point).
    m.eq().scheduleFunction([&m] { m.resetStats(); }, 2000);
    m.run(*w);

    obs::Tracer *t = m.tracer();
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->measureStart(), 2000u);

    std::uint64_t events = 0;
    t->forEachEvent([&](const obs::TraceEvent &ev) {
        ++events;
        EXPECT_GE(ev.start, 2000u) << obs::spanKindName(ev.kind);
    });
    EXPECT_GT(events, 0u); // post-reset activity was recorded

    // A miss in flight at the reset is dropped, so every histogram
    // sample also postdates the reset — spot-check via the minimum.
    for (unsigned c = 0; c < obs::numReqClasses; ++c) {
        const auto &d =
            t->classLatency(static_cast<obs::ReqClass>(c));
        if (d.count()) {
            EXPECT_GE(d.minValue(), 0.0);
        }
    }
}

} // namespace
} // namespace ccnuma
