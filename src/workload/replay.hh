/**
 * @file
 * Trace-replay fast path for repeated-identity sweeps.
 *
 * Figure sweeps (fig6-fig12) run the same eight kernels dozens of
 * times while varying only *machine* parameters — protocol, occupancy,
 * network latency, shard count. The reference stream a kernel feeds
 * the simulated processors is meant to depend on none of those, only
 * on the workload identity (kernel name plus every WorkloadParams
 * field), which would make generating it from the data-computing
 * coroutines again for every sweep point pure waste.
 *
 * This module captures each identity's per-thread operation vectors
 * once into a ReplayBuffer and replays them allocation-free through
 * OpStream::fromBuffer for every later point with the same identity.
 * Replay is bit-identical only for a kernel whose threads never read
 * state shared with other threads on the host: then timing feedback
 * only decides when the next op is pulled, never which op arrives.
 * Cholesky breaks this. Its dynamic task queue reads a host-side
 * cursor in simulated-time order, and captureWorkload drains thread 0
 * to exhaustion first, so the captured stream gives thread 0 every
 * task and replay simulates a serialized schedule (7.8x the live
 * ticks on 16 processors, PPC, scale 0.05).
 *
 * The identity key is a caller-supplied canonical text (the campaign
 * layer passes serve::canonicalWorkload(app, params), which renders
 * every WorkloadParams field). Keys are compared as full strings —
 * hashes only name disk files, and a loaded file whose embedded
 * identity text differs from the request is a counted stale reject,
 * never a silent wrong-trace replay.
 *
 * Cache behavior mirrors serve::ResultCache: byte-capped in-memory
 * LRU, single-flight capture dedup, optional disk persistence with
 * atomic tmp+rename publish. Every outcome is counted.
 *
 * Environment knobs (read once, at first globalReplayCache() use):
 *  - CCNUMA_REPLAY=0|off   disable replay entirely (always generate);
 *                          1|on or unset keeps it, anything else warns
 *                          and keeps it
 *  - CCNUMA_REPLAY_BYTES=N in-memory cap in bytes (default 256 MiB)
 *  - CCNUMA_REPLAY_DIR=D   persist captured traces under D
 */

#ifndef CCNUMA_WORKLOAD_REPLAY_HH
#define CCNUMA_WORKLOAD_REPLAY_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload/workload.hh"

namespace ccnuma
{

/** A captured reference stream: one op vector per workload thread. */
struct ReplayBuffer
{
    /** Canonical workload identity this trace was captured from. */
    std::string identity;
    std::vector<std::vector<ThreadOp>> threads;

    /** Resident payload size (ops only; identity text is noise). */
    std::uint64_t
    bytes() const
    {
        std::uint64_t n = 0;
        for (const auto &t : threads)
            n += t.size() * sizeof(ThreadOp);
        return n;
    }

    std::uint64_t
    ops() const
    {
        std::uint64_t n = 0;
        for (const auto &t : threads)
            n += t.size();
        return n;
    }
};

/**
 * Capture @p w's complete reference stream by running every thread
 * coroutine to exhaustion. The workload is consumed — callers must
 * construct a fresh instance for anything that runs after capture.
 */
std::shared_ptr<const ReplayBuffer>
captureWorkload(Workload &w, std::string identity);

/** Monotonic counters for every replay-cache outcome. */
struct ReplayStats
{
    std::uint64_t captures = 0;     ///< traces generated (compute ran)
    std::uint64_t hits = 0;         ///< served from memory
    std::uint64_t diskHits = 0;     ///< served from the persist dir
    std::uint64_t staleRejects = 0; ///< disk identity mismatch
    std::uint64_t dedupWaits = 0;   ///< waited on an in-flight capture
    std::uint64_t evictions = 0;    ///< LRU entries dropped at the cap
    std::uint64_t bytes = 0;        ///< current resident payload bytes
    std::uint64_t entries = 0;      ///< current resident trace count

    /** replayed / (replayed + captured); 0 when nothing was asked. */
    double
    hitRate() const
    {
        std::uint64_t served = hits + diskHits + dedupWaits;
        std::uint64_t total = served + captures;
        return total ? static_cast<double>(served) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * Byte-capped, single-flight, optionally persistent cache of captured
 * reference streams, keyed by canonical workload identity text.
 */
class ReplayCache
{
  public:
    /**
     * @param byte_cap    resident ceiling; 0 disables the memory LRU
     *                    (captures still dedup while in flight).
     * @param persist_dir disk write-through directory; "" disables
     *                    persistence. Created on first store.
     */
    explicit ReplayCache(std::uint64_t byte_cap,
                         std::string persist_dir = "");

    ReplayCache(const ReplayCache &) = delete;
    ReplayCache &operator=(const ReplayCache &) = delete;

    /**
     * Return the trace for @p identity, capturing it with a workload
     * from @p make on the first request. Concurrent requests for the
     * same identity share one capture (single-flight). The returned
     * buffer is immutable and safe to replay from any thread.
     */
    std::shared_ptr<const ReplayBuffer>
    acquire(const std::string &identity,
            const std::function<std::unique_ptr<Workload>()> &make);

    ReplayStats stats() const;

  private:
    struct Entry
    {
        std::shared_ptr<const ReplayBuffer> buf;
        std::list<std::string>::iterator lruPos;
    };

    struct Flight
    {
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        bool failed = false;
        std::shared_ptr<const ReplayBuffer> buf;
    };

    void insertLocked(const std::string &identity,
                      std::shared_ptr<const ReplayBuffer> buf);
    void evictLocked();
    std::string pathFor(const std::string &identity) const;
    /** nullptr on miss; sets @p stale on an identity-text mismatch. */
    std::shared_ptr<const ReplayBuffer>
    loadFromDisk(const std::string &identity, bool &stale) const;
    void storeToDisk(const ReplayBuffer &b) const;

    mutable std::mutex mutex_;
    std::uint64_t byteCap_;
    std::string persistDir_;
    std::unordered_map<std::string, Entry> entries_;
    /** Identity texts, least-recently-used first. */
    std::list<std::string> lru_;
    std::unordered_map<std::string, std::shared_ptr<Flight>> inFlight_;
    ReplayStats stats_;
};

/**
 * Wrap a captured trace as a Workload: thread(tid) replays the
 * recorded vector allocation-free; name()/place()/params() delegate
 * to a fresh @p inner instance of the same identity (placement hints
 * are machine-facing, cheap, and must still run per machine).
 */
class ReplayWorkload : public Workload
{
  public:
    ReplayWorkload(std::unique_ptr<Workload> inner,
                   std::shared_ptr<const ReplayBuffer> buf)
        : Workload(inner->params()), inner_(std::move(inner)),
          buf_(std::move(buf))
    {
        ccnuma_assert(buf_ != nullptr);
        ccnuma_assert(buf_->threads.size() == numThreads());
    }

    std::string name() const override { return inner_->name(); }

    OpStream
    thread(unsigned tid) override
    {
        // Aliasing shared_ptr: the stream keeps the whole buffer
        // alive while indexing one thread's vector.
        return OpStream::fromBuffer(
            std::shared_ptr<const std::vector<ThreadOp>>(
                buf_, &buf_->threads.at(tid)));
    }

    void place(AddressMap &map) override { inner_->place(map); }

  private:
    std::unique_ptr<Workload> inner_;
    std::shared_ptr<const ReplayBuffer> buf_;
};

/**
 * Process-wide replay cache, configured from the environment on first
 * use. nullptr when CCNUMA_REPLAY is 0 or off — callers fall back to
 * generating every stream.
 */
ReplayCache *globalReplayCache();

} // namespace ccnuma

#endif // CCNUMA_WORKLOAD_REPLAY_HH
