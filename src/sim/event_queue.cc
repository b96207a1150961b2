#include "sim/event_queue.hh"

#include <bit>
#include <cstdio>
#include <exception>

namespace ccnuma
{

// The overflow heap's slot index shares prev_'s storage: a field of its
// own would grow every Event from 72 to 80 bytes.
static_assert(sizeof(void *) != 8 || sizeof(Event) == 72,
              "Event grew past 72 bytes on a 64-bit target");

Event::~Event()
{
    if (!scheduled_)
        return;
    // Destroying a still-scheduled event leaves a dangling pointer
    // in the queue; normally that is a simulator bug worth dying
    // for. During exception unwinding, though, aborting here would
    // mask the original error (a PanicError thrown from deep inside
    // a handler unwinds through component owners whose events are
    // still pending), so tolerate it: unlink the entry and let the
    // original exception propagate.
    if (std::uncaught_exceptions() > 0 && queue_ != nullptr) {
        std::fprintf(stderr,
                     "warn: event '%s' destroyed while scheduled "
                     "(exception unwinding); entry cancelled\n",
                     name());
        queue_->forgetDestroyed(this);
        return;
    }
    // Cannot throw from a destructor; print and abort instead.
    std::fprintf(stderr,
                 "panic: event '%s' destroyed while scheduled\n",
                 name());
    std::abort();
}

std::vector<EventQueue::Core> &
EventQueue::coreCache()
{
    static thread_local std::vector<Core> cache;
    return cache;
}

EventQueue::EventQueue()
{
    std::vector<Core> &cache = coreCache();
    if (!cache.empty()) {
        Core core = std::move(cache.back());
        cache.pop_back();
        buckets_ = std::move(core.buckets);
        heap_ = std::move(core.heap);
        slabs_ = std::move(core.slabs);
        freeList_ = core.freeList;
    } else {
        buckets_.resize(wheelTicks);
        // About twice the largest overflow population measured (516,
        // in the crash campaign), so parking never allocates once warm.
        heap_.reserve(1024);
    }
}

EventQueue::~EventQueue()
{
    // Pending events must not see scheduled_ == true from their own
    // destructors after the queue is gone. Occupied buckets are found
    // through the bitmap so a drained queue's teardown touches
    // nothing; pooled events still in flight are reset and returned
    // to the free list so the core below is donated clean.
    auto forget = [this](Event *ev) {
        ev->scheduled_ = false;
        ev->queue_ = nullptr;
        ev->prev_ = nullptr;
        ev->next_ = nullptr;
        if (ev->pooled_)
            releasePoolEvent(static_cast<PoolEvent *>(ev));
    };
    for (unsigned w = 0; w < bitmapWords; ++w) {
        std::uint64_t bits = bitmap_[w];
        while (bits != 0) {
            std::size_t idx = (std::size_t(w) << 6) +
                              static_cast<std::size_t>(
                                  std::countr_zero(bits));
            bits &= bits - 1;
            Bucket &b = buckets_[idx];
            for (Event *ev = b.head; ev != nullptr;) {
                Event *next = ev->next_;
                forget(ev);
                ev = next;
            }
            b.head = nullptr;
            b.tail = nullptr;
        }
    }
    for (Event *ev : heap_)
        forget(ev);
    heap_.clear();
    // Donate the cleaned bucket array, heap storage and pool slabs to
    // the next queue constructed on this thread (bounded cache).
    std::vector<Core> &cache = coreCache();
    if (cache.size() < 4) {
        cache.push_back(Core{std::move(buckets_), std::move(heap_),
                             std::move(slabs_), freeList_});
    }
}

void
EventQueue::insertSorted(Event *ev)
{
    // Events in one bucket share a tick; keep the list ordered by
    // (priority, schedTick, ctx, seq). Locally scheduled events carry
    // the highest (schedTick, seq) so far within their context, so
    // scanning from the tail terminates almost immediately on the hot
    // path (uniform priorities, one context); heap migration and
    // cross-queue injection walk further.
    auto after_fires_later = [](const Event *a, const Event *e) {
        if (a->priority_ != e->priority_)
            return a->priority_ > e->priority_;
        if (a->schedTick_ != e->schedTick_)
            return a->schedTick_ > e->schedTick_;
        if (a->ctx_ != e->ctx_)
            return a->ctx_ > e->ctx_;
        return a->seq_ > e->seq_;
    };
    std::size_t idx = static_cast<std::size_t>(ev->when_ & wheelMask);
    Bucket &b = buckets_[idx];
    Event *after = b.tail;
    while (after != nullptr && after_fires_later(after, ev)) {
        after = after->prev_;
    }
    ev->prev_ = after;
    if (after != nullptr) {
        ev->next_ = after->next_;
        after->next_ = ev;
    } else {
        ev->next_ = b.head;
        b.head = ev;
    }
    if (ev->next_ != nullptr)
        ev->next_->prev_ = ev;
    else
        b.tail = ev;
    bitmap_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    ++nearCount_;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    ccnuma_assert(ev != nullptr);
    ev->schedTick_ = curTick_;
    ev->ctx_ = curCtx_;
    ev->seq_ = ctxSeq_[curCtx_]++;
    ev->fireCtx_ = curCtx_;
    insertScheduled(ev, when);
}

void
EventQueue::insertScheduled(Event *ev, Tick when)
{
    if (when < curTick_) {
        panic("scheduling event '%s' at tick %llu in the past "
              "(now %llu)", ev->name(),
              (unsigned long long)when, (unsigned long long)curTick_);
    }
    if (ev->scheduled_) {
        panic("event '%s' scheduled while already pending",
              ev->name());
    }
    ev->when_ = when;
    ev->scheduled_ = true;
    ev->queue_ = this;
    if (inWheel(when)) {
        insertSorted(ev);
    } else {
        heap_.push_back(ev);
        heapSiftUp(heap_.size() - 1, ev);
    }
    ++pending_;
    if (pending_ > maxPending_)
        maxPending_ = pending_;
}

void
EventQueue::unlink(Event *ev)
{
    if (inWheel(ev->when_)) {
        std::size_t idx =
            static_cast<std::size_t>(ev->when_ & wheelMask);
        Bucket &b = buckets_[idx];
        if (ev->prev_ != nullptr)
            ev->prev_->next_ = ev->next_;
        else
            b.head = ev->next_;
        if (ev->next_ != nullptr)
            ev->next_->prev_ = ev->prev_;
        else
            b.tail = ev->prev_;
        if (b.head == nullptr)
            bitmap_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
        --nearCount_;
    } else {
        // Every heap event lies past the window (the advance pops all
        // the window covers), so the event's own tick discriminates.
        heapErase(ev);
    }
    ev->prev_ = nullptr;
    ev->next_ = nullptr;
    ev->scheduled_ = false;
    --pending_;
}

void
EventQueue::forgetDestroyed(Event *ev)
{
    ccnuma_assert(ev != nullptr && ev->scheduled_);
    unlink(ev);
}

void
EventQueue::deschedule(Event *ev)
{
    ccnuma_assert(ev != nullptr);
    if (!ev->scheduled_)
        panic("descheduling event '%s' that is not pending",
              ev->name());
    unlink(ev);
    if (ev->pooled_)
        releasePoolEvent(static_cast<PoolEvent *>(ev));
}

Event *
EventQueue::peekWheel() const
{
    if (nearCount_ == 0)
        return nullptr;
    // All wheel events are at or after curTick_, so scanning the
    // occupancy bitmap from curTick_'s slot (or the window start if
    // the window was just advanced past curTick_) finds the earliest
    // one.
    Tick from = curTick_ > wheelBase_ ? curTick_ : wheelBase_;
    std::size_t idx = static_cast<std::size_t>(from & wheelMask);
    unsigned word = static_cast<unsigned>(idx >> 6);
    std::uint64_t bits = bitmap_[word] >> (idx & 63);
    if (bits != 0) {
        return buckets_[idx + std::countr_zero(bits)].head;
    }
    for (unsigned w = word + 1; w < bitmapWords; ++w) {
        if (bitmap_[w] != 0) {
            return buckets_[(std::size_t(w) << 6) +
                            std::countr_zero(bitmap_[w])]
                .head;
        }
    }
    return nullptr;
}

void
EventQueue::heapSiftUp(std::size_t i, Event *ev)
{
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (heap_[parent]->when_ <= ev->when_)
            break;
        heapPlace(i, heap_[parent]);
        i = parent;
    }
    heapPlace(i, ev);
}

void
EventQueue::heapSiftDown(std::size_t i, Event *ev)
{
    const std::size_t n = heap_.size();
    while (true) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n &&
            heap_[child + 1]->when_ < heap_[child]->when_)
            ++child;
        if (ev->when_ <= heap_[child]->when_)
            break;
        heapPlace(i, heap_[child]);
        i = child;
    }
    heapPlace(i, ev);
}

void
EventQueue::heapErase(Event *ev)
{
    // Refill the hole with the last leaf, then restore the heap order
    // in whichever direction the leaf violates it.
    const std::size_t i = ev->heapSlot_;
    Event *last = heap_.back();
    heap_.pop_back();
    if (last == ev)
        return;
    if (i > 0 && last->when_ < heap_[(i - 1) / 2]->when_)
        heapSiftUp(i, last);
    else
        heapSiftDown(i, last);
}

void
EventQueue::advanceWheelTo(Tick target)
{
    ccnuma_assert(nearCount_ == 0 && target >= curTick_);
    wheelBase_ = target & ~wheelMask;
    // Migrating events keep their original key and enter their bucket
    // through insertSorted, so time spent in the heap never changes
    // the firing order. A window that covers no parked event costs
    // one comparison against the heap top.
    while (!heap_.empty() && inWheel(heap_.front()->when_)) {
        Event *ev = heap_.front();
        heapErase(ev);
        insertSorted(ev);
    }
}

Tick
EventQueue::nextWhen() const
{
    const Event *ev = peekWheel();
    if (ev != nullptr)
        return ev->when_;
    return heap_.empty() ? maxTick : heap_.front()->when_;
}

EventQueue::PoolEvent *
EventQueue::acquirePoolEvent()
{
    if (freeList_ == nullptr) {
        constexpr std::size_t slabEvents = 64;
        slabs_.push_back(std::make_unique<PoolEvent[]>(slabEvents));
        PoolEvent *slab = slabs_.back().get();
        for (std::size_t i = 0; i < slabEvents; ++i) {
            slab[i].pooled_ = true;
            slab[i].next_ = freeList_;
            freeList_ = &slab[i];
        }
    }
    PoolEvent *ev = freeList_;
    freeList_ = static_cast<PoolEvent *>(ev->next_);
    ev->next_ = nullptr;
    return ev;
}

void
EventQueue::releasePoolEvent(PoolEvent *ev)
{
    ev->cb_.reset();
    ev->next_ = freeList_;
    freeList_ = ev;
}

void
EventQueue::fire(Event *ev)
{
    ccnuma_assert(ev->when_ >= curTick_);
    curTick_ = ev->when_;
    unlink(ev);
    ++processed_;
    // Make the firing event's context current so everything it
    // schedules is attributed to it, and latch its key so sync
    // operations it performs can be replayed in deterministic order.
    curCtx_ = ev->fireCtx_;
    curPriority_ = ev->priority_;
    curSchedTick_ = ev->schedTick_;
    curKeyCtx_ = ev->ctx_;
    curSeq_ = ev->seq_;
    curSub_ = 0;
    // process() may reschedule the event; only return pool-owned
    // one-shots that are not pending again. A scope guard keeps that
    // true when process() throws (fatal/panic from a handler), so
    // the one-shot's captured state does not leak.
    struct Reaper
    {
        EventQueue *q;
        Event *ev;
        ~Reaper()
        {
            if (ev->pooled_ && !ev->scheduled_)
                q->releasePoolEvent(static_cast<PoolEvent *>(ev));
        }
    } reaper{this, ev};
    ev->process();
}

bool
EventQueue::step()
{
    Event *ev = peekWheel();
    if (ev == nullptr) {
        if (heap_.empty())
            return false;
        // Only parked events remain: fast-forward the window to the
        // earliest of them and retry.
        advanceWheelTo(heap_.front()->when_);
        ev = peekWheel();
        ccnuma_assert(ev != nullptr);
    }
    fire(ev);
    return true;
}

void
EventQueue::runWindow(Tick end)
{
    windowStop_ = maxTick;
    while (pending_ != 0) {
        Tick stop = end < windowStop_ ? end : windowStop_;
        Event *ev = peekWheel();
        if (ev == nullptr) {
            if (heap_.front()->when_ >= stop)
                return;
            advanceWheelTo(heap_.front()->when_);
            ev = peekWheel();
        }
        if (ev->when_ >= stop)
            return;
        fire(ev);
    }
}

} // namespace ccnuma
