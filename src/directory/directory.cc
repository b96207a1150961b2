#include "directory/directory.hh"

#include <algorithm>

namespace ccnuma
{

const char *
dirStateName(DirState s)
{
    switch (s) {
      case DirState::Home: return "Home";
      case DirState::SharedRemote: return "SharedRemote";
      case DirState::DirtyRemote: return "DirtyRemote";
    }
    return "?";
}

DirectoryCache::DirectoryCache(const DirectoryParams &p,
                               unsigned line_bytes)
    : assoc_(p.cacheAssoc)
{
    if (p.cacheEntries == 0 || p.cacheAssoc == 0 ||
        p.cacheEntries % p.cacheAssoc != 0) {
        fatal("directory cache: bad geometry (%u entries, %u-way)",
              p.cacheEntries, p.cacheAssoc);
    }
    numSets_ = p.cacheEntries / p.cacheAssoc;
    if ((numSets_ & (numSets_ - 1)) != 0)
        fatal("directory cache: set count %u not a power of two",
              numSets_);
    lineShift_ = std::countr_zero(line_bytes);
    tags_.resize(p.cacheEntries);
}

bool
DirectoryCache::access(Addr line_addr)
{
    std::size_t set = (line_addr >> lineShift_) & (numSets_ - 1);
    std::size_t base = set * assoc_;
    Tag *victim = &tags_[base];
    for (unsigned w = 0; w < assoc_; ++w) {
        Tag &t = tags_[base + w];
        if (t.line == line_addr) {
            t.lastUse = ++useClock_;
            ++hits_;
            return true;
        }
        if (t.lastUse < victim->lastUse)
            victim = &t;
    }
    victim->line = line_addr;
    victim->lastUse = ++useClock_;
    ++misses_;
    return false;
}

void
DirectoryCache::reset()
{
    for (auto &t : tags_)
        t = Tag{};
}

DirectoryStore::DirectoryStore(const std::string &name,
                               const DirectoryParams &p,
                               unsigned line_bytes)
    // Pre-size the entry table past the directory cache's working
    // set so steady-state lookups never rehash.
    : params_(p), entries_(2 * p.cacheEntries), cache_(p, line_bytes),
      statGroup_(name)
{
    statGroup_.add(&statReads);
    statGroup_.add(&statWrites);
    statGroup_.add(&statCacheHits);
    statGroup_.add(&statCacheMisses);
}

DirEntry &
DirectoryStore::entry(Addr line_addr)
{
    // Every read-or-write path into an entry funnels through here or
    // peek(): resolving first guarantees no handler ever observes (or
    // builds on) a corrupted word.
    resolvePending();
    return entries_[line_addr];
}

const DirEntry *
DirectoryStore::peek(Addr line_addr) const
{
    resolvePending();
    return entries_.find(line_addr);
}

BusSideDirState
DirectoryStore::busSideState(Addr line_addr) const
{
    const DirEntry *e = peek(line_addr);
    if (!e)
        return BusSideDirState::NoRemote;
    switch (e->state) {
      case DirState::Home:
        return BusSideDirState::NoRemote;
      case DirState::SharedRemote:
        return BusSideDirState::SharedRemote;
      case DirState::DirtyRemote:
        return BusSideDirState::DirtyRemote;
    }
    return BusSideDirState::NoRemote;
}

Tick
DirectoryStore::scheduleRead(Addr line_addr, Tick earliest, bool *hit)
{
    ++statReads;
    bool h = params_.cacheEnabled && cache_.access(line_addr);
    if (hit)
        *hit = h;
    if (h) {
        ++statCacheHits;
        return earliest;
    }
    ++statCacheMisses;
    Tick begin = std::max(earliest, dramFreeAt_);
    dramFreeAt_ = begin + params_.dramBusy;
    return begin + params_.dramLatency;
}

std::uint64_t
DirectoryStore::packWord(const DirEntry &e, unsigned w)
{
    if (w == 0)
        return e.sharers;
    return static_cast<std::uint64_t>(e.state) |
           (static_cast<std::uint64_t>(e.owner) << 8);
}

void
DirectoryStore::unpackWord(DirEntry &e, unsigned w, std::uint64_t v)
{
    if (w == 0) {
        e.sharers = v;
    } else {
        e.state = static_cast<DirState>(v & 0xff);
        e.owner = static_cast<NodeId>(v >> 8);
    }
}

DirFlipResult
DirectoryStore::injectFlip(Random &rng, unsigned bits)
{
    DirFlipResult res;
    if (entries_.size() == 0)
        return res; // nothing at rest to corrupt
    std::size_t pick = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(entries_.size())));
    std::size_t i = 0;
    Addr victim = 0;
    entries_.forEach([&](Addr line, const DirEntry &) {
        if (i++ == pick)
            victim = line;
    });
    res.applied = true;
    res.line = victim;
    unsigned word = static_cast<unsigned>(rng.below(2));
    if (bits >= 2) {
        // Uncorrectable: SECDED detects it at the next access, and
        // the entry cannot be reconstructed from the codeword. The
        // caller escalates (crash + directory rebuild wipes the whole
        // map), so there is nothing useful to mutate here.
        res.uncorrectable = true;
        return res;
    }
    // Correctable: corrupt the live word, park the correction.
    DirEntry &e = entries_[victim];
    std::uint64_t data = packWord(e, word);
    PendingCe ce;
    ce.line = victim;
    ce.word = word;
    ce.shadow = data;
    std::uint8_t check = ecc::encode(data);
    unsigned k = static_cast<unsigned>(rng.below(ecc::codewordBits));
    ecc::flipBit(data, check, k);
    ce.check = check;
    ce.corrupted = data;
    unpackWord(e, word, data);
    pendingCe_.push_back(ce);
    return res;
}

void
DirectoryStore::resolvePendingSlow() const
{
    std::vector<PendingCe> pending;
    pending.swap(pendingCe_);
    for (const PendingCe &ce : pending) {
        DirEntry &e = entries_[ce.line];
        ecc::EccResult r = ecc::decode(ce.corrupted, ce.check);
        ccnuma_assert(r.status == ecc::EccStatus::CorrectedData ||
                      r.status == ecc::EccStatus::CorrectedCheck);
        ccnuma_assert(r.data == ce.shadow);
        unpackWord(e, ce.word, r.data);
        ++eccCorrected_;
    }
}

void
DirectoryStore::scheduleWrite(Addr line_addr, Tick when)
{
    ++statWrites;
    // Write-through and posted: occupy the DRAM, don't stall the
    // engine. The directory cache is updated in place (write-through
    // allocate keeps the hot entry resident).
    cache_.access(line_addr);
    Tick begin = std::max(when, dramFreeAt_);
    dramFreeAt_ = begin + params_.dramBusy;
}

} // namespace ccnuma
