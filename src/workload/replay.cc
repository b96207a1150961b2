#include "workload/replay.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <type_traits>

#include "sim/env.hh"
#include "sim/logging.hh"

namespace ccnuma
{

// Traces persist as raw ThreadOp records; the format is only sound
// for a POD op struct (same-platform reload, no pointers to chase).
static_assert(std::is_trivially_copyable_v<ThreadOp>,
              "replay files store ThreadOp verbatim");

namespace
{

/**
 * On-disk trace layout (host-endian, same-platform cache only — the
 * embedded identity check rejects anything else that slips through):
 *
 *   magic "CCNREPL1"            8 bytes
 *   identityLen                 u64
 *   identity text               identityLen bytes
 *   numThreads                  u64
 *   per-thread op count         numThreads x u64
 *   per-thread ThreadOp records concatenated, in thread order
 */
constexpr char kMagic[8] = {'C', 'C', 'N', 'R', 'E', 'P', 'L', '1'};

/** FNV-1a; names disk files only, identity text is the real key. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

bool
readU64(std::istream &is, std::uint64_t &v)
{
    return static_cast<bool>(
        is.read(reinterpret_cast<char *>(&v), sizeof(v)));
}

void
writeU64(std::ostream &os, std::uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

} // namespace

std::shared_ptr<const ReplayBuffer>
captureWorkload(Workload &w, std::string identity)
{
    auto b = std::make_shared<ReplayBuffer>();
    b->identity = std::move(identity);
    b->threads.resize(w.numThreads());
    for (unsigned t = 0; t < w.numThreads(); ++t) {
        OpStream s = w.thread(t);
        ThreadOp op;
        while (s.next(op))
            b->threads[t].push_back(op);
        b->threads[t].shrink_to_fit();
    }
    return b;
}

ReplayCache::ReplayCache(std::uint64_t byte_cap,
                         std::string persist_dir)
    : byteCap_(byte_cap), persistDir_(std::move(persist_dir))
{}

void
ReplayCache::insertLocked(const std::string &identity,
                          std::shared_ptr<const ReplayBuffer> buf)
{
    if (byteCap_ == 0)
        return;
    auto it = entries_.find(identity);
    if (it != entries_.end()) {
        lru_.splice(lru_.end(), lru_, it->second.lruPos);
        return;
    }
    Entry e;
    e.buf = std::move(buf);
    lru_.push_back(identity);
    e.lruPos = std::prev(lru_.end());
    stats_.bytes += e.buf->bytes();
    entries_.emplace(identity, std::move(e));
    stats_.entries = entries_.size();
    evictLocked();
}

void
ReplayCache::evictLocked()
{
    while (stats_.bytes > byteCap_ && !lru_.empty()) {
        auto it = entries_.find(lru_.front());
        stats_.bytes -= it->second.buf->bytes();
        lru_.pop_front();
        entries_.erase(it);
        ++stats_.evictions;
    }
    stats_.entries = entries_.size();
}

std::string
ReplayCache::pathFor(const std::string &identity) const
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(identity)));
    return persistDir_ + "/" + buf + ".replay";
}

std::shared_ptr<const ReplayBuffer>
ReplayCache::loadFromDisk(const std::string &identity,
                          bool &stale) const
{
    stale = false;
    if (persistDir_.empty())
        return nullptr;
    std::ifstream is(pathFor(identity), std::ios::binary);
    if (!is)
        return nullptr;
    char magic[sizeof(kMagic)];
    if (!is.read(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        stale = true; // wrong or torn format == stale
        return nullptr;
    }
    std::uint64_t id_len = 0;
    if (!readU64(is, id_len) || id_len > (1u << 20)) {
        stale = true;
        return nullptr;
    }
    std::string id(id_len, '\0');
    if (!is.read(id.data(), static_cast<std::streamsize>(id_len)))
        return nullptr;
    if (id != identity) {
        // Hash-named file holds a different identity (collision or a
        // trace captured under older workload parameters): reject it
        // and recapture rather than replaying the wrong stream.
        stale = true;
        return nullptr;
    }
    std::uint64_t nthreads = 0;
    if (!readU64(is, nthreads) || nthreads > (1u << 20))
        return nullptr;
    std::vector<std::uint64_t> counts(nthreads);
    for (auto &c : counts) {
        if (!readU64(is, c))
            return nullptr;
    }
    auto b = std::make_shared<ReplayBuffer>();
    b->identity = identity;
    b->threads.resize(nthreads);
    for (std::uint64_t t = 0; t < nthreads; ++t) {
        b->threads[t].resize(counts[t]);
        auto bytes = static_cast<std::streamsize>(
            counts[t] * sizeof(ThreadOp));
        if (!is.read(reinterpret_cast<char *>(b->threads[t].data()),
                     bytes))
            return nullptr; // truncated == miss; will be rewritten
    }
    return b;
}

void
ReplayCache::storeToDisk(const ReplayBuffer &b) const
{
    if (persistDir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(persistDir_, ec);
    if (ec)
        return;
    std::string path = pathFor(b.identity);
    std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary);
        if (!os)
            return;
        os.write(kMagic, sizeof(kMagic));
        writeU64(os, b.identity.size());
        os.write(b.identity.data(),
                 static_cast<std::streamsize>(b.identity.size()));
        writeU64(os, b.threads.size());
        for (const auto &t : b.threads)
            writeU64(os, t.size());
        for (const auto &t : b.threads) {
            os.write(reinterpret_cast<const char *>(t.data()),
                     static_cast<std::streamsize>(
                         t.size() * sizeof(ThreadOp)));
        }
        if (!os)
            return;
    }
    // Atomic publish: a concurrent reader sees the old file or the
    // new one, never a torn write.
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

std::shared_ptr<const ReplayBuffer>
ReplayCache::acquire(
    const std::string &identity,
    const std::function<std::unique_ptr<Workload>()> &make)
{
    while (true) {
        std::shared_ptr<Flight> flight;
        bool owner = false;
        {
            std::lock_guard<std::mutex> g(mutex_);
            auto it = entries_.find(identity);
            if (it != entries_.end()) {
                ++stats_.hits;
                lru_.splice(lru_.end(), lru_, it->second.lruPos);
                return it->second.buf;
            }
            auto fit = inFlight_.find(identity);
            if (fit != inFlight_.end()) {
                flight = fit->second;
            } else {
                flight = std::make_shared<Flight>();
                inFlight_.emplace(identity, flight);
                owner = true;
            }
        }

        if (!owner) {
            // Single-flight rendezvous: share the owner's capture.
            std::unique_lock<std::mutex> fl(flight->m);
            flight->cv.wait(fl, [&] { return flight->done; });
            if (!flight->failed) {
                std::lock_guard<std::mutex> g(mutex_);
                ++stats_.dedupWaits;
                return flight->buf;
            }
            continue; // owner's capture threw; retry (maybe as owner)
        }

        std::shared_ptr<const ReplayBuffer> buf;
        bool from_disk = false;
        bool stale = false;
        try {
            buf = loadFromDisk(identity, stale);
            from_disk = buf != nullptr;
            if (!from_disk) {
                auto w = make();
                buf = captureWorkload(*w, identity);
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> g(mutex_);
                inFlight_.erase(identity);
            }
            {
                std::lock_guard<std::mutex> fl(flight->m);
                flight->failed = true;
                flight->done = true;
            }
            flight->cv.notify_all();
            throw;
        }

        {
            std::lock_guard<std::mutex> g(mutex_);
            if (stale)
                ++stats_.staleRejects;
            if (from_disk)
                ++stats_.diskHits;
            else
                ++stats_.captures;
            insertLocked(identity, buf);
            inFlight_.erase(identity);
        }
        if (!from_disk)
            storeToDisk(*buf);
        {
            std::lock_guard<std::mutex> fl(flight->m);
            flight->buf = buf;
            flight->done = true;
        }
        flight->cv.notify_all();
        return buf;
    }
}

ReplayStats
ReplayCache::stats() const
{
    std::lock_guard<std::mutex> g(mutex_);
    return stats_;
}

ReplayCache *
globalReplayCache()
{
    static ReplayCache *cache = []() -> ReplayCache * {
        if (!envSwitch("CCNUMA_REPLAY", true))
            return nullptr;
        std::uint64_t cap = 256ull << 20;
        if (const char *b = std::getenv("CCNUMA_REPLAY_BYTES"))
            cap = std::strtoull(b, nullptr, 10);
        std::string dir;
        if (const char *d = std::getenv("CCNUMA_REPLAY_DIR"))
            dir = d;
        return new ReplayCache(cap, std::move(dir));
    }();
    return cache;
}

} // namespace ccnuma
