#include "mem/cache.hh"

#include <algorithm>
#include <bit>

namespace ccnuma
{

const char *
lineStateName(LineState s)
{
    switch (s) {
      case LineState::Invalid: return "I";
      case LineState::Shared: return "S";
      case LineState::Exclusive: return "E";
      case LineState::Modified: return "M";
    }
    return "?";
}

namespace
{

/** Tag and partial-tag arrays of a destroyed cache. */
struct SpareArrays
{
    std::vector<CacheLine> lines;
    std::vector<std::uint8_t> partial;
};

/** Set once the thread's spare list is gone (thread exit). */
thread_local constinit bool sparesRetired = false;

struct SpareList
{
    std::vector<SpareArrays> arrays;
    SpareList() = default;
    SpareList(const SpareList &) = delete;
    SpareList &operator=(const SpareList &) = delete;
    ~SpareList() { sparesRetired = true; }
};

/**
 * The arrays of caches destroyed on this thread, or null while the
 * thread exits. A sweep builds one machine per point, and a
 * 64-processor machine's L2 tag arrays are 16 MB: the next machine
 * takes them over instead of allocating and page-faulting them
 * afresh, whatever the allocator did with the freed heap in between.
 * Of each size, at most as many arrays wait here as caches of that
 * size were alive at once on the thread.
 */
std::vector<SpareArrays> *
spareArrays()
{
    if (sparesRetired)
        return nullptr;
    static thread_local SpareList spare;
    return &spare.arrays;
}

} // namespace

SetAssocCache::SetAssocCache(const std::string &name,
                             std::uint64_t size_bytes, unsigned assoc,
                             unsigned line_bytes)
    : name_(name), lineBytes_(line_bytes), assoc_(assoc),
      statGroup_(name)
{
    if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
        fatal("cache %s: line size %u not a power of two",
              name.c_str(), line_bytes);
    if (assoc == 0)
        fatal("cache %s: associativity must be positive", name.c_str());
    std::uint64_t num_lines = size_bytes / line_bytes;
    if (num_lines == 0 || num_lines % assoc != 0)
        fatal("cache %s: %llu lines not divisible into %u ways",
              name.c_str(), (unsigned long long)num_lines, assoc);
    numSets_ = static_cast<unsigned>(num_lines / assoc);
    if ((numSets_ & (numSets_ - 1)) != 0)
        fatal("cache %s: set count %u not a power of two",
              name.c_str(), numSets_);
    lineShift_ = std::countr_zero(static_cast<unsigned>(lineBytes_));
    tagShift_ = lineShift_ + std::countr_zero(numSets_);
    if (std::vector<SpareArrays> *spare = spareArrays()) {
        auto it = std::find_if(spare->begin(), spare->end(),
                               [&](const SpareArrays &a) {
                                   return a.lines.size() == num_lines;
                               });
        if (it != spare->end()) {
            lines_ = std::move(it->lines);
            partial_ = std::move(it->partial);
            *it = std::move(spare->back());
            spare->pop_back();
        }
    }
    lines_.assign(num_lines, CacheLine{});
    partial_.assign(num_lines, 0);

    statGroup_.add(&statEvictions);
    statGroup_.add(&statDirtyEvictions);
    statGroup_.add(&statInvalidations);
}

SetAssocCache::~SetAssocCache()
{
    if (std::vector<SpareArrays> *spare = spareArrays())
        spare->push_back({std::move(lines_), std::move(partial_)});
}

std::size_t
SetAssocCache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

CacheLine *
SetAssocCache::findLine(Addr addr)
{
    // Resolve before the tag compare: a corrupted tag must never
    // produce a false hit (or mask a true one).
    resolvePending();
    // Invalid lines carry kNoLineTag (and partial tag 0), so tag
    // equality alone decides a hit; the partial tag only spares the
    // full compare on ways that cannot match.
    const Addr la = lineAlign(addr);
    const std::size_t base = setIndex(addr) * assoc_;
    const std::uint8_t pt = partialTag(la);
    const std::uint8_t *p = partial_.data() + base;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (p[w] == pt && lines_[base + w].lineAddr == la)
            return &lines_[base + w];
    }
    return nullptr;
}

const CacheLine *
SetAssocCache::findLine(Addr addr) const
{
    return const_cast<SetAssocCache *>(this)->findLine(addr);
}

CacheLine *
SetAssocCache::allocate(Addr addr, LineState st, Victim *victim)
{
    resolvePending();
    Addr la = lineAlign(addr);
    ccnuma_assert(findLine(addr) == nullptr);
    std::size_t base = setIndex(addr) * assoc_;
    CacheLine *target = nullptr;
    for (unsigned w = 0; w < assoc_; ++w) {
        CacheLine &line = lines_[base + w];
        if (!lineValid(line.state)) {
            target = &line;
            break;
        }
        if (!target || line.lastUse < target->lastUse)
            target = &line;
    }
    partial_[static_cast<std::size_t>(target - lines_.data())] =
        partialTag(la);
    if (victim) {
        victim->valid = lineValid(target->state);
        victim->lineAddr = target->lineAddr;
        victim->state = target->state;
        victim->version = target->version;
    }
    if (lineValid(target->state)) {
        ++statEvictions;
        if (target->state == LineState::Modified)
            ++statDirtyEvictions;
    }
    target->lineAddr = la;
    target->state = st;
    target->version = 0;
    touch(target);
    return target;
}

LineState
SetAssocCache::invalidate(Addr addr)
{
    CacheLine *line = findLine(addr);
    if (!line)
        return LineState::Invalid;
    LineState prior = line->state;
    line->state = LineState::Invalid;
    line->lineAddr = kNoLineTag;
    partial_[static_cast<std::size_t>(line - lines_.data())] = 0;
    ++statInvalidations;
    return prior;
}

void
SetAssocCache::invalidateAll()
{
    // Correct first, then drop: pending repairs of lines about to be
    // discarded still count as corrected, keeping the ledger closed.
    resolvePending();
    for (auto &line : lines_) {
        line.state = LineState::Invalid;
        line.lineAddr = kNoLineTag;
    }
    std::fill(partial_.begin(), partial_.end(), std::uint8_t{0});
}

std::size_t
SetAssocCache::numValid() const
{
    resolvePending();
    std::size_t n = 0;
    for (const auto &line : lines_) {
        if (lineValid(line.state))
            ++n;
    }
    return n;
}

std::uint64_t
SetAssocCache::packWord(const CacheLine &l, unsigned w)
{
    switch (w) {
      case 0: return l.lineAddr;
      case 1: return l.version;
      default: return static_cast<std::uint64_t>(l.state);
    }
}

void
SetAssocCache::unpackWord(CacheLine &l, unsigned w, std::uint64_t v)
{
    switch (w) {
      case 0: l.lineAddr = v; break;
      case 1: l.version = v; break;
      default: l.state = static_cast<LineState>(v & 0xff); break;
    }
}

Addr
SetAssocCache::injectCeFlip(Random &rng)
{
    resolvePending();
    std::size_t valid = numValid();
    if (valid == 0)
        return kNoLineTag;
    std::size_t pick = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(valid)));
    std::size_t idx = lines_.size();
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        if (!lineValid(lines_[i].state))
            continue;
        if (pick-- == 0) {
            idx = i;
            break;
        }
    }
    ccnuma_assert(idx < lines_.size());
    CacheLine &l = lines_[idx];
    Addr victim_addr = l.lineAddr;
    unsigned word = static_cast<unsigned>(rng.below(3));
    std::uint64_t data = packWord(l, word);
    PendingCe ce;
    ce.lineIdx = idx;
    ce.word = word;
    ce.shadow = data;
    std::uint8_t check = ecc::encode(data);
    unsigned k = static_cast<unsigned>(rng.below(ecc::codewordBits));
    ecc::flipBit(data, check, k);
    ce.check = check;
    ce.corrupted = data;
    unpackWord(l, word, data);
    pendingCe_.push_back(ce);
    return victim_addr;
}

void
SetAssocCache::resolvePendingSlow() const
{
    std::vector<PendingCe> pending;
    pending.swap(pendingCe_);
    for (const PendingCe &ce : pending) {
        CacheLine &l = lines_[ce.lineIdx];
        ecc::EccResult r = ecc::decode(ce.corrupted, ce.check);
        ccnuma_assert(r.status == ecc::EccStatus::CorrectedData ||
                      r.status == ecc::EccStatus::CorrectedCheck);
        ccnuma_assert(r.data == ce.shadow);
        unpackWord(l, ce.word, r.data);
        ++eccCorrected_;
    }
}

} // namespace ccnuma
