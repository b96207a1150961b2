/**
 * @file
 * Reusable simulation sessions: the Machine lifecycle lifted out of
 * the bench main()s so one execution path serves both the one-shot
 * table/figure benches and the long-running campaign daemon.
 *
 * A SimPoint is one fully-resolved simulation: a MachineConfig with
 * every tweak applied plus the workload identity (factory name and
 * WorkloadParams, seed included). SimSession::run() executes it —
 * construct Machine, build workload, run, collect RunResult — and is
 * safe to call concurrently from many threads (each call owns its
 * Machine; the PR 4 thread-local Core recycling makes repeated runs
 * on one thread allocation-cheap).
 *
 * CampaignRunner executes a vector of points on the existing
 * parallelMap backend, optionally fronted by a ResultCache: each
 * point is content-hashed and served from cache / deduplicated
 * against in-flight twins before a Machine is ever built.
 */

#ifndef CCNUMA_SERVE_SESSION_HH
#define CCNUMA_SERVE_SESSION_HH

#include <functional>
#include <string>
#include <vector>

#include "serve/canonical.hh"
#include "serve/result_cache.hh"
#include "system/machine.hh"
#include "workload/replay.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace serve
{

/** One fully-resolved simulation point. */
struct SimPoint
{
    std::string app;   ///< workload factory name (e.g. "FFT")
    MachineConfig cfg; ///< all tweaks applied
    WorkloadParams wp; ///< thread count, scale, seed, ...

    /** Content address of the simulation SimSession::run runs: the
     *  config as resolved by the CCNUMA_* environment overrides, and
     *  whether the workload stream is replayed (CCNUMA_REPLAY). */
    PointKey
    key() const
    {
        MachineConfig resolved = cfg;
        return makePointKey(resolved.withEnvOverrides(), app, wp,
                            globalReplayCache() != nullptr);
    }
};

/** Paper convention: LU and Cholesky run on 32 processors. */
unsigned procsForApp(const std::string &app, unsigned default_procs);

/**
 * Resolve one (app, arch) request into a SimPoint, reproducing the
 * bench harness conventions exactly: base config, procs-per-node
 * split, arch, caller tweak, --shards folded to a node-count
 * divisor, and workload params tied to the post-tweak line size.
 * @p procs is the point's processor count (callers that honor the
 * paper's LU/Cholesky convention pass procsForApp() output).
 */
SimPoint
makeSimPoint(const std::string &app, Arch arch, unsigned procs,
             double scale, double data_factor = 1.0,
             const std::function<void(MachineConfig &)> &tweak =
                 nullptr,
             unsigned shards = 1,
             std::uint64_t seed = WorkloadParams{}.seed);

/** Executes SimPoints; stateless, concurrency-safe. */
class SimSession
{
  public:
    /** Build the Machine and workload for @p pt and run it. */
    RunResult run(const SimPoint &pt) const;
};

/** How one campaign point was satisfied. */
struct PointOutcome
{
    RunResult result;
    bool fromCache = false; ///< memory or disk hit
    bool deduped = false;   ///< shared an in-flight twin
};

/**
 * Runs a vector of points on @p jobs parallelMap workers, through
 * @p cache when one is given. Multiple CampaignRunners may share one
 * ResultCache concurrently — that is exactly how overlapping
 * campaigns deduplicate.
 */
class CampaignRunner
{
  public:
    explicit CampaignRunner(unsigned jobs = 1,
                            ResultCache *cache = nullptr)
        : jobs_(jobs), cache_(cache)
    {}

    /**
     * Execute every point; results come back in input order.
     * @p progress (optional) fires once per completed point, FROM
     * THE WORKER THREAD that finished it, as it completes — the
     * daemon streams these to clients. It must be thread-safe.
     */
    std::vector<PointOutcome>
    run(const std::vector<SimPoint> &points,
        const std::function<void(std::size_t,
                                 const PointOutcome &)> &progress =
            nullptr) const;

    unsigned jobs() const { return jobs_; }
    ResultCache *cache() const { return cache_; }

  private:
    unsigned jobs_;
    ResultCache *cache_;
};

} // namespace serve
} // namespace ccnuma

#endif // CCNUMA_SERVE_SESSION_HH
