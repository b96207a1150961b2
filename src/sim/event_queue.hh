/**
 * @file
 * Discrete-event simulation kernel: events and the global event queue.
 *
 * Events scheduled for the same tick are ordered first by priority and
 * then by insertion order, making every simulation fully deterministic.
 *
 * The queue is a timing wheel backed by a binary min-heap: near-horizon
 * events (the bus, memory, directory, and network latencies that
 * dominate a coherence simulation are all small constants) live in
 * per-tick intrusive bucket lists with O(1) schedule/fire/cancel, and
 * events past the wheel window (watchdog budgets, retransmission
 * timeouts, hops across the window's end) sit in an intrusive heap
 * ordered by tick whose top is popped into the wheel when the window
 * advances. Cancellation removes an event in place, so there is no
 * lazy-cancel set to consult on the pop path. One-shot callbacks are
 * served from a slab-backed free list of pooled events whose callback
 * storage is inline, so steady-state simulation performs zero heap
 * allocations per event.
 */

#ifndef CCNUMA_SIM_EVENT_QUEUE_HH
#define CCNUMA_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace ccnuma
{

class EventQueue;

/**
 * The full deterministic ordering key of an event. Events at the same
 * tick fire in (priority, schedTick, ctx, seq) order, where schedTick
 * is the tick the event was scheduled at, ctx identifies the
 * scheduling context (a deterministic small integer: one per SMP
 * node, one per network egress port, one for the sync manager, one
 * for everything else), and seq is a per-context insertion counter.
 *
 * Because every component of the key is computed from the scheduling
 * context rather than from global insertion order, the key is
 * identical whether the machine runs on one event queue or on many
 * sharded queues — which is what makes sharded execution bit-identical
 * to serial. The sub counter disambiguates multiple side-effect
 * records (e.g. sync operations) emitted while one event fires.
 */
struct EventKey
{
    Tick when = 0;
    int priority = 0;
    Tick schedTick = 0;
    std::uint32_t ctx = 0;
    std::uint64_t seq = 0;
    std::uint32_t sub = 0;

    friend bool
    operator<(const EventKey &a, const EventKey &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        if (a.schedTick != b.schedTick)
            return a.schedTick < b.schedTick;
        if (a.ctx != b.ctx)
            return a.ctx < b.ctx;
        if (a.seq != b.seq)
            return a.seq < b.seq;
        return a.sub < b.sub;
    }
};

/**
 * Base class for schedulable events. Derived classes implement
 * process(). An event may be rescheduled after it has fired, but it
 * must not be scheduled while already pending.
 */
class Event
{
  public:
    /** Default priority; lower values fire first within a tick. */
    static constexpr int defaultPriority = 100;

    explicit Event(int priority = defaultPriority)
        : priority_(priority)
    {}

    virtual ~Event();

    /** Called by the event queue when the event fires. */
    virtual void process() = 0;

    /** Human-readable description used in error messages. */
    virtual const char *name() const { return "anonymous event"; }

    /** @return true while the event sits in an event queue. */
    bool scheduled() const { return scheduled_; }

    /** @return the tick this event is (or was last) scheduled for. */
    Tick when() const { return when_; }

    int priority() const { return priority_; }

  private:
    friend class EventQueue;

    /**
     * Intrusive links of a wheel bucket list. An event parked in the
     * overflow heap has no bucket neighbours, so prev_'s storage holds
     * its heap slot instead; Event stays 72 bytes on LP64.
     */
    union
    {
        Event *prev_ = nullptr;
        std::size_t heapSlot_;
    };
    Event *next_ = nullptr;
    Tick when_ = 0;
    /** Tick at which the event was scheduled (part of the key). */
    Tick schedTick_ = 0;
    std::uint64_t seq_ = 0;
    int priority_;
    /** Scheduling context the key's seq counter belongs to. */
    std::uint32_t ctx_ = 0;
    /** Context that becomes current while the event fires. */
    std::uint32_t fireCtx_ = 0;
    bool scheduled_ = false;
    bool pooled_ = false;
    /** Queue the event is scheduled on (for dtor cancellation). */
    EventQueue *queue_ = nullptr;
};

/**
 * Fixed-footprint type-erased callable of signature @p Sig: callables
 * up to @p InlineBytes are stored in place; larger ones fall back to
 * the heap (emplace reports it, so owners can count it and the
 * allocation-free tests can assert the hot paths never take the
 * fallback). The event queue's one-shots use the default void()
 * shape; the coherence controller's handler actions and the cache
 * unit's miss-restart callback use their own signatures and sizes.
 */
template <typename Sig = void(), std::size_t InlineBytes = 112>
class SmallCallback;

template <typename R, typename... Args, std::size_t InlineBytes>
class SmallCallback<R(Args...), InlineBytes>
{
  public:
    /**
     * The default is sized so that a captured DispatchItem-by-value
     * plus a pointer still fits in place.
     */
    static constexpr std::size_t inlineBytes = InlineBytes;

    SmallCallback() = default;
    SmallCallback(const SmallCallback &) = delete;
    SmallCallback &operator=(const SmallCallback &) = delete;
    ~SmallCallback() { reset(); }

    /**
     * Install @p fn. @return true if the callable had to be
     * heap-allocated (capture larger than inlineBytes).
     */
    template <typename F>
    bool
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        ccnuma_assert(invoke_ == nullptr);
        bool heap;
        if constexpr (sizeof(Fn) <= inlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(buf_))
                Fn(std::forward<F>(fn));
            if constexpr (!std::is_trivially_destructible_v<Fn>) {
                destroy_ = [](void *p) {
                    static_cast<Fn *>(p)->~Fn();
                };
            }
            heap = false;
        } else {
            heap_ = new Fn(std::forward<F>(fn));
            destroy_ = [](void *p) { delete static_cast<Fn *>(p); };
            heap = true;
        }
        invoke_ = [](void *p, Args... args) -> R {
            return (*static_cast<Fn *>(p))(std::forward<Args>(args)...);
        };
        return heap;
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    R
    operator()(Args... args)
    {
        ccnuma_assert(invoke_ != nullptr);
        return invoke_(heap_ ? heap_ : static_cast<void *>(buf_),
                       std::forward<Args>(args)...);
    }

    void
    reset()
    {
        if (destroy_ != nullptr)
            destroy_(heap_ ? heap_ : static_cast<void *>(buf_));
        invoke_ = nullptr;
        destroy_ = nullptr;
        heap_ = nullptr;
    }

  private:
    R (*invoke_)(void *, Args...) = nullptr;
    void (*destroy_)(void *) = nullptr;
    void *heap_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[inlineBytes];
};

/**
 * Convenience event wrapping a std::function callback, for
 * caller-owned (typically stack- or member-) events. One-shot
 * callbacks passed to EventQueue::scheduleFunction do NOT use this
 * class; they are served from the queue's internal pool.
 */
class EventFunction : public Event
{
  public:
    explicit EventFunction(std::function<void()> fn,
                           const char *name = "function event",
                           int priority = defaultPriority)
        : Event(priority), fn_(std::move(fn)), name_(name)
    {}

    void process() override { fn_(); }
    const char *name() const override { return name_; }

  private:
    std::function<void()> fn_;
    const char *name_;
};

/**
 * The global event queue. One instance drives a whole simulated
 * machine; all simulation components hold a reference to it.
 */
class EventQueue
{
  public:
    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Declare the number of scheduling contexts this queue will key
     * events by. Must be called before any event is scheduled. A
     * fresh queue has a single context (0), which reproduces the
     * classic global-insertion-order tie-break exactly.
     */
    void
    setNumContexts(std::uint32_t n)
    {
        ccnuma_assert(n >= 1 && pending_ == 0);
        ctxSeq_.assign(n, 0);
    }

    /**
     * Grow the context table to at least @p n entries, preserving
     * existing sequence counters. Safe mid-run; used by the
     * single-queue convenience constructors (ShardMap::single) so
     * components built on a shared test queue never index past it.
     */
    void
    ensureContexts(std::uint32_t n)
    {
        if (n > ctxSeq_.size())
            ctxSeq_.resize(n, 0);
    }

    /**
     * Set the context that subsequent schedule() calls are attributed
     * to. The queue switches this automatically to each firing
     * event's fire-context; explicit calls are only needed for
     * scheduling done outside event processing (machine start-up).
     */
    void
    setContext(std::uint32_t c)
    {
        ccnuma_assert(c < ctxSeq_.size());
        curCtx_ = c;
    }

    std::uint32_t context() const { return curCtx_; }

    /**
     * Full deterministic key of the event currently firing (valid
     * only while step() is inside process()), with sub = 0.
     */
    EventKey
    currentKey() const
    {
        return EventKey{curTick_, curPriority_, curSchedTick_,
                        curKeyCtx_, curSeq_, 0};
    }

    /**
     * Monotone per-firing-event counter for ordering side-effect
     * records emitted while one event processes.
     */
    std::uint32_t nextSub() { return curSub_++; }

    /**
     * Schedule @p ev to fire at absolute tick @p when.
     * @pre when >= curTick() and the event is not already scheduled.
     */
    void schedule(Event *ev, Tick when);

    /** Schedule @p ev to fire @p delta ticks from now. */
    void scheduleIn(Event *ev, Tick delta)
    {
        schedule(ev, curTick_ + delta);
    }

    /**
     * Schedule a one-shot callback at absolute tick @p when. The
     * underlying event comes from the queue's pool and returns to it
     * after firing: no allocation as long as the capture fits the
     * SmallCallback inline buffer and the pool is warm. @p name must
     * be a literal (or otherwise outlive the event).
     */
    template <typename F>
    void
    scheduleFunction(F &&fn, Tick when,
                     int priority = Event::defaultPriority,
                     const char *name = "one-shot")
    {
        PoolEvent *ev = acquirePoolEvent();
        if (ev->cb_.emplace(std::forward<F>(fn)))
            ++callbackHeapFallbacks_;
        ev->name_ = name;
        ev->priority_ = priority;
        // schedule() can panic (e.g. tick in the past); reclaim the
        // pool slot so the failed call does not leak it.
        try {
            schedule(ev, when);
        } catch (...) {
            releasePoolEvent(ev);
            throw;
        }
    }

    /** Schedule a one-shot callback @p delta ticks from now. */
    template <typename F>
    void
    scheduleFunctionIn(F &&fn, Tick delta,
                       int priority = Event::defaultPriority,
                       const char *name = "one-shot")
    {
        scheduleFunction(std::forward<F>(fn), curTick_ + delta,
                         priority, name);
    }

    /**
     * Schedule a one-shot callback with an explicitly supplied
     * ordering key instead of the implicit (curTick, curCtx,
     * next-seq) one. This is how cross-queue work — network arrivals
     * and sync grants — is injected so that its position among
     * same-tick events is identical no matter which queue (serial or
     * shard) it lands on. @p fire_ctx becomes the current context
     * while the callback runs.
     */
    template <typename F>
    void
    scheduleExternal(F &&fn, Tick when, int priority,
                     const char *name, Tick sched_tick,
                     std::uint32_t ctx, std::uint64_t seq,
                     std::uint32_t fire_ctx)
    {
        PoolEvent *ev = acquirePoolEvent();
        if (ev->cb_.emplace(std::forward<F>(fn)))
            ++callbackHeapFallbacks_;
        ev->name_ = name;
        ev->priority_ = priority;
        ev->schedTick_ = sched_tick;
        ev->ctx_ = ctx;
        ev->seq_ = seq;
        ev->fireCtx_ = fire_ctx;
        try {
            insertScheduled(ev, when);
        } catch (...) {
            releasePoolEvent(ev);
            throw;
        }
    }

    /** Remove a pending event from the queue without firing it. */
    void deschedule(Event *ev);

    /**
     * Cancel the queue entry of a still-scheduled event whose object
     * is being destroyed during exception unwinding (called only by
     * Event::~Event). The event is unlinked in place and never
     * touched again.
     */
    void forgetDestroyed(Event *ev);

    /** @return true when no events remain. */
    bool empty() const { return pending_ == 0; }

    /** Number of events still pending. */
    std::uint64_t numPending() const { return pending_; }

    /**
     * High-water mark of pending events over the queue's lifetime
     * (an event-population gauge for the observability export).
     */
    std::uint64_t maxPending() const { return maxPending_; }

    /** Total number of events processed so far. */
    std::uint64_t numProcessed() const { return processed_; }

    /**
     * One-shot callbacks whose capture exceeded the SmallCallback
     * inline buffer and paid a heap allocation. Hot paths keep their
     * captures small; the allocation-free test asserts this stays 0.
     */
    std::uint64_t callbackHeapFallbacks() const
    {
        return callbackHeapFallbacks_;
    }

    /** Tick of the earliest pending event (maxTick when empty). */
    Tick nextWhen() const;

    /**
     * Fire the single earliest pending event.
     * @return false if the queue was empty.
     */
    bool step();

    /** Run until the queue drains or curTick() exceeds @p limit. */
    void
    run(Tick limit = maxTick)
    {
        runUntil([this] { return pending_ == 0; }, limit);
    }

    /**
     * Window helper for the sharded scheduler: fire every pending
     * event strictly before tick @p end — or before the window-stop
     * tick if a clampWindowStop() call during the window lowered it —
     * then return (later events stay pending). The stop is re-read
     * after every event, so a sync post can cut its own window short
     * the moment it happens.
     */
    void runWindow(Tick end);

    /**
     * Lower the current window's stop tick (see runWindow). Used by
     * the sync manager in sharded mode: a shard that posts a sync
     * operation at tick t must not run past t + handoff, because the
     * operation's grant — scheduled at a later window barrier — may
     * land back on this very queue at that tick. Counted, never
     * silent: windowClamps() reports how often windows were cut.
     */
    void
    clampWindowStop(Tick t)
    {
        if (t < windowStop_) {
            windowStop_ = t;
            ++windowClamps_;
        }
    }

    /** Number of windows cut short by clampWindowStop(). */
    std::uint64_t windowClamps() const { return windowClamps_; }

    /**
     * Run until @p done returns true, the queue drains, or @p limit
     * is exceeded. @return true iff @p done became true. The serial
     * hot loop: @p done is a template callable, inlined with no
     * std::function call per event, and each iteration peeks the
     * earliest event exactly once.
     */
    template <typename Done>
    bool
    runUntil(Done done, Tick limit = maxTick)
    {
        while (!done()) {
            Event *ev = peekWheel();
            if (ev == nullptr) {
                // Check the limit first: a window opens only at an
                // event about to fire, so no later schedule() can land
                // between curTick() and the window start.
                if (heap_.empty() || heap_.front()->when_ > limit)
                    return false;
                advanceWheelTo(heap_.front()->when_);
                ev = peekWheel();
            }
            if (ev->when_ > limit)
                return false;
            fire(ev);
        }
        return true;
    }

    // --- wheel geometry (exposed for tests/benches) ---
    // 1024 one-tick buckets: every hot latency constant in the
    // simulator (bus, memory, directory, network — all < 100 ticks)
    // lands in the window directly, while keeping the bucket array
    // small enough (16 KB) that constructing a Machine stays cheap.
    // Longer delays (watchdog budgets, retransmission timers) park in
    // the overflow heap and migrate as the window advances.
    static constexpr unsigned wheelBits = 10;
    static constexpr Tick wheelTicks = Tick(1) << wheelBits;

  private:
    /** Internal pooled one-shot event (see scheduleFunction). */
    class PoolEvent : public Event
    {
      public:
        void process() override { cb_(); }
        const char *name() const override { return name_; }

      private:
        friend class EventQueue;
        SmallCallback<> cb_;
        const char *name_ = "one-shot";
    };

    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    static constexpr Tick wheelMask = wheelTicks - 1;
    static constexpr unsigned bitmapWords =
        static_cast<unsigned>(wheelTicks / 64);

    bool
    inWheel(Tick when) const
    {
        return when - wheelBase_ < wheelTicks;
    }

    /**
     * Link @p ev (when_ inside the window) into its bucket, ordered by
     * (priority, schedTick, ctx, seq).
     */
    void insertSorted(Event *ev);
    /** Insert @p ev at @p when with its key fields already set. */
    void insertScheduled(Event *ev, Tick when);
    void unlink(Event *ev);
    /** Earliest pending event, or nullptr. Never mutates the wheel. */
    Event *peekWheel() const;
    /** Store @p ev at heap slot @p i and record the slot in it. */
    void
    heapPlace(std::size_t i, Event *ev)
    {
        heap_[i] = ev;
        ev->heapSlot_ = i;
    }
    /** Move @p ev from slot @p i towards the root to its place. */
    void heapSiftUp(std::size_t i, Event *ev);
    /** Move @p ev from slot @p i towards the leaves to its place. */
    void heapSiftDown(std::size_t i, Event *ev);
    /** Remove @p ev from its own heap slot in O(log n). */
    void heapErase(Event *ev);
    /**
     * Re-base the wheel window so that @p target falls inside it and
     * pop every parked event the new window covers into its bucket.
     * @pre the wheel is empty and target is the heap's earliest tick.
     */
    void advanceWheelTo(Tick target);
    /** Pop bookkeeping + process() for an already-peeked event. */
    void fire(Event *ev);

    PoolEvent *acquirePoolEvent();
    void releasePoolEvent(PoolEvent *ev);

    /**
     * Recyclable allocation backbone of a queue: the bucket array, the
     * overflow heap's storage and the one-shot pool slabs. Machines
     * are constructed once per sweep point, so destroyed queues donate
     * these (cleaned) to a thread-local cache the next queue on the
     * thread draws from, making EventQueue construction
     * allocation-free in the steady state of a parallel sweep.
     */
    struct Core
    {
        std::vector<Bucket> buckets;
        std::vector<Event *> heap;
        std::vector<std::unique_ptr<PoolEvent[]>> slabs;
        PoolEvent *freeList = nullptr;
    };
    static std::vector<Core> &coreCache();

    std::vector<Bucket> buckets_;
    std::uint64_t bitmap_[bitmapWords] = {};
    /** First tick of the wheel window (aligned to wheelTicks). */
    Tick wheelBase_ = 0;
    std::uint64_t nearCount_ = 0;

    /**
     * Overflow tier: every event past the wheel window, in a binary
     * min-heap ordered by tick. Each parked event records its slot
     * (heapSlot_), so cancellation erases it in place; the window
     * advance pops the top while it falls inside the new window. The
     * vector is reserved at construction and recycled through Core,
     * so parking stays allocation-free in the steady state.
     */
    std::vector<Event *> heap_;

    /** Stop tick of the window in progress (see runWindow). */
    Tick windowStop_ = maxTick;
    std::uint64_t windowClamps_ = 0;

    Tick curTick_ = 0;
    /** Per-context insertion counters (single context by default). */
    std::vector<std::uint64_t> ctxSeq_ = {0};
    std::uint32_t curCtx_ = 0;
    /** Key of the event currently firing (see currentKey()). */
    int curPriority_ = 0;
    Tick curSchedTick_ = 0;
    std::uint32_t curKeyCtx_ = 0;
    std::uint64_t curSeq_ = 0;
    std::uint32_t curSub_ = 0;
    std::uint64_t pending_ = 0;
    std::uint64_t maxPending_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t callbackHeapFallbacks_ = 0;

    /** Pool of one-shot events: slab chunks + intrusive free list. */
    std::vector<std::unique_ptr<PoolEvent[]>> slabs_;
    PoolEvent *freeList_ = nullptr;
};

} // namespace ccnuma

#endif // CCNUMA_SIM_EVENT_QUEUE_HH
