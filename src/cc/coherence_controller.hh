/**
 * @file
 * The coherence controller: the paper's primary subject.
 *
 * One controller per SMP node synthesizes CC-NUMA shared memory:
 * it defers bus transactions that need remote action, exchanges
 * protocol messages with peer controllers, keeps the full-map
 * directory for local lines, and executes the protocol handlers of
 * Table 4 on one or two protocol engines.
 *
 * Architecture variants (the paper's HWC / PPC / 2HWC / 2PPC):
 *  - engine type: custom hardware FSM vs. commodity protocol
 *    processor (per-sub-operation costs from the OccupancyModel);
 *  - engine count: one engine, or two engines split so that protocol
 *    requests for local addresses go to the LPE and requests for
 *    remote addresses to the RPE (only the LPE touches the
 *    directory), following the S3.mp-style policy the paper uses.
 *
 * Shared structure (common to all variants, as in the paper):
 *  - duplicate directories (bus-side 2-bit copy answers snoops at bus
 *    rate; controller-side full-map copy in DRAM behind an 8K-entry
 *    write-through directory cache);
 *  - a protocol dispatch controller with three input queues
 *    (network responses > network requests > bus requests) and a
 *    livelock exception that promotes a bus request after four
 *    network-side requests have bypassed it;
 *  - a direct data path between bus interface and network interface
 *    that forwards writebacks of dirty remote data to the home node
 *    without dispatching a protocol handler.
 *
 * Dispatch (DESIGN.md §20): a message's msgTraits() row picks its
 * queue; at dispatch one guard stage (admit) decides whether the item
 * is served now, parked, nacked or dropped, and one method per
 * Table 4 handler group serves it.
 */

#ifndef CCNUMA_CC_COHERENCE_CONTROLLER_HH
#define CCNUMA_CC_COHERENCE_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bus/bus.hh"
#include "directory/directory.hh"
#include "mem/address_map.hh"
#include "net/network.hh"
#include "net/reliable.hh"
#include "protocol/handlers.hh"
#include "protocol/messages.hh"
#include "protocol/occupancy.hh"
#include "protocol/retry.hh"
#include "sim/event_queue.hh"
#include "sim/fault_tolerance.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"

namespace ccnuma
{

namespace obs
{
class Tracer;
} // namespace obs

/** Functional view of the node's caches, provided by the node. */
class LocalCacheProbe
{
  public:
    virtual ~LocalCacheProbe() = default;

    /** @return true if any local cache holds a valid copy. */
    virtual bool lineCachedLocally(Addr line_addr) const = 0;

    /** @return true if any local cache holds a Modified copy. */
    virtual bool lineModifiedLocally(Addr line_addr) const = 0;
};

/** Routes protocol messages between controllers (the machine). */
class MsgRouter
{
  public:
    virtual ~MsgRouter() = default;

    /** Deliver @p msg to its destination controller (now). */
    virtual void deliverMsg(const Msg &msg) = 0;

    /**
     * Called at the instant @p msg enters the network, before
     * Network::send. The router may stamp the message (the invariant
     * checker's per-pair sequence numbers live here).
     */
    virtual void onNetSend(Msg &msg) { (void)msg; }
};

/** Coherence controller configuration. */
struct CcParams
{
    EngineType engineType = EngineType::HWC;
    unsigned numEngines = 1;
    /**
     * Dispatch controller grant latency (ticks). The grant overlaps
     * with the engine's dispatch-register read, so the base systems
     * fold it into the DispatchHandler sub-operation.
     */
    Tick dispatchLatency = 0;
    /** Network interface processing per message, each direction. */
    Tick niDelay = 4;
    /**
     * Extra occupancy a protocol processor pays after a data
     * transfer: it confirms completion by polling off-chip
     * bus/network-interface registers (two reads), where the custom
     * FSM tracks completion in hardware for free.
     */
    Tick ppTransferPoll = 16;
    /** Bus requests promoted after this many net-request bypasses. */
    unsigned livelockThreshold = 4;
    /** Direct bus<->network data path for writebacks (ablation). */
    bool directDataPath = true;
    /** Dispatch queue arbitration: paper policy vs. plain FIFO. */
    bool priorityArbitration = true;
    /**
     * Two-engine work distribution: the paper's static local/remote
     * address split (false) vs. an idealized dynamic least-loaded
     * split (true) — the alternative the paper discusses in Section
     * 3.4 but rejects because it would require both engines to
     * access the directory.
     */
    bool dynamicSplit = false;
};

/**
 * The coherence controller. It is a bus agent (for the fetch and
 * invalidation transactions its handlers issue) and the bus's
 * coherence hook (the bus-side directory logic).
 */
class CoherenceController : public BusAgent, public BusCoherenceHook
{
  public:
    /**
     * @p level is the machine's fault-tolerance level. From Transport
     * up a nacked request retries under the bounded backoff policy
     * (RetryTracker) instead of the paper's immediate, unbounded
     * retry; from Recovery up the crash, timeout-ladder and rebuild
     * paths are live. Below Recovery, every recovery code path stays
     * behind one branch.
     */
    CoherenceController(const std::string &name, EventQueue &eq,
                        NodeId node, const CcParams &params,
                        FaultTolerance level, Bus &bus, Network &net,
                        AddressMap &map, DirectoryStore &dir);

    /** Wire the functional cache probe (set by the node). */
    void setProbe(LocalCacheProbe *probe) { probe_ = probe; }

    /** Wire the local memory controller (set by the node). */
    void setMemory(MemoryController *mem) { memory_ = mem; }

    /** Wire the message router (set by the machine). */
    void setRouter(MsgRouter *router) { router_ = router; }

    /**
     * Route outgoing messages through a reliable transport instead
     * of the raw network (set by the machine when recovery is
     * enabled; null restores the direct path).
     */
    void setTransport(ReliableTransport *t) { xport_ = t; }

    /**
     * Wire the observability tracer (set by the machine when tracing
     * is enabled; null keeps every hook to one branch).
     */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    /**
     * Install an engine-stall hook (fault injection). Consulted each
     * time an engine is about to dispatch; a nonzero return keeps the
     * engine busy for that many ticks before it re-attempts the
     * dispatch. Null (the default) costs one branch per dispatch.
     */
    void
    setStallHook(std::function<Tick()> hook)
    {
        stallHook_ = std::move(hook);
    }

    // --- fail-stop crash recovery (PR 6) ---

    /** Ticks from a non-permanent crash to the controller restart. */
    static constexpr Tick repairTicks = 25'000;
    /** Period of the per-miss request timer at the cache units. */
    static constexpr Tick missTimeoutTicks = 200'000;
    /** Timeouts answered by re-sending the request (ladder rung 1). */
    static constexpr unsigned timeoutRetries = 2;
    /** Further timeouts answered by RecoveryProbe (ladder rung 2). */
    static constexpr unsigned probeRetries = 2;
    static_assert(missTimeoutTicks >
                      ReliableTransport::retransmitTimeoutMax,
                  "a miss timeout must imply protocol-level loss, not "
                  "a late retransmission: a slow-but-healthy home "
                  "would be escalated as dead while the transport "
                  "still retries");

    /**
     * Controller lifecycle under fail-stop faults. The controller
     * card dies and restarts; the node's caches, bus, and memory
     * survive throughout.
     */
    enum class CcState : std::uint8_t
    {
        Normal,     ///< healthy
        Crashed,    ///< dark: no dispatch, no receive, bus parked
        Recovering, ///< restarted, rebuilding the directory
    };

    CcState ccState() const { return state_; }

    /**
     * Fail-stop crash: every protocol engine and all transient
     * handler state dies instantly. Queued and in-flight work for
     * which this controller is still responsible (local processor
     * requests, parked home-side requests) is remembered for replay
     * after restart; network-side items are dropped — the reliable
     * transport's receive fence guarantees their re-delivery. With
     * @p lose_directory the directory SRAM content is lost too and
     * the restart enters a rebuild epoch.
     */
    void crash(bool lose_directory);

    /**
     * Restart the controller repairTicks after the crash. If the
     * directory survived, service resumes immediately; otherwise the
     * home enters Recovering and sends DirProbe to every peer at once,
     * in ascending node order, to rebuild the full-map directory from
     * their cached copies.
     */
    void restart();

    /**
     * Miss-timeout escalation ladder, driven by the requesting cache
     * unit's per-miss timer: resend the request (timeoutRetries
     * times), then probe the home for liveness (probeRetries times),
     * then declare the home dead via the degraded hook.
     */
    void missTimeout(Addr line_addr);

    /** Called when the timeout ladder exhausts against a home. */
    using DegradedHook = std::function<void(NodeId dead_home)>;
    void setDegradedHook(DegradedHook fn)
    {
        degradedHook_ = std::move(fn);
    }

    /** Cross-check hook run when a directory rebuild completes. */
    using RebuildCheckHook = std::function<void(NodeId home)>;
    void setRebuildCheckHook(RebuildCheckHook fn)
    {
        rebuildCheckHook_ = std::move(fn);
    }

    /**
     * Functional scan of the node's caches for DirProbe responses:
     * emit(line, modified, version) for every valid local copy of a
     * line homed at @p home. Installed by the node.
     */
    using CacheScanFn = std::function<void(
        NodeId home,
        const std::function<void(Addr, bool, std::uint64_t)> &emit)>;
    void setCacheScan(CacheScanFn fn) { cacheScan_ = std::move(fn); }

    /**
     * Degraded-mode migration support: hand the recovery manager
     * every writeback-buffer entry whose line is homed at @p home
     * (the dead node), erasing them and releasing any requests
     * stalled behind them. The manager posts the data to the
     * successor's memory.
     */
    std::vector<std::pair<Addr, std::uint64_t>>
    drainWbHomedAt(NodeId home);

    /**
     * Degraded-mode migration support: tear down every pending
     * requester-side transaction whose line is homed at @p home and
     * re-enqueue the underlying processor requests. Called after the
     * address map remap, so the replays route to the successor.
     */
    void replayPendingHomedAt(NodeId home);

    /**
     * Permanently retire a dead node's controller: drop all state
     * with no replay and no restart. The node's pages have been
     * migrated to a successor and its network pairs fenced dead.
     */
    void shutdownPermanently();

    // --- integrity: line poisoning (PR 7) ---

    /**
     * Mark a local line dead: an uncorrectable corruption consumed
     * its only up-to-date copy and no rebuild can resurrect the
     * data. The directory entry is reset to Home with no sharers
     * (keeping the invariant checker's directory-coverage view
     * consistent) and every future request for the line — local bus
     * requests and remote ReadReq/ReadExclReq alike — is bounced
     * with PoisonNack so the corruption can never propagate.
     */
    void markLineDead(Addr line_addr);

    /** True when @p line_addr has been poisoned at this home. */
    bool
    isLineDead(Addr line_addr) const
    {
        return !deadLines_.empty() &&
               deadLines_.count(line_addr) != 0;
    }

    /**
     * Requester-side poison fence, installed by the machine: called
     * when a PoisonNack arrives (or a local request hits a dead
     * local line) after the controller has torn down its own pending
     * state for the line. The machine kills the processors blocked
     * on the line and aborts their cache-unit misses.
     */
    using PoisonFence = std::function<void(Addr line)>;
    void setPoisonFence(PoisonFence fn)
    {
        poisonFence_ = std::move(fn);
    }

    /** Lines poisoned at this home. */
    std::uint64_t linesDead() const { return deadLines_.size(); }

    NodeId node() const { return node_; }
    const CcParams &params() const { return params_; }

    // --- BusCoherenceHook ---
    SupplyDecision busObserve(BusTxn &txn,
                              SnoopResult combined) override;
    void busCaptureWriteBack(BusTxn &txn, Tick data_ready) override;

    // --- BusAgent (the controller's own fetches) ---
    SnoopResult busSnoop(BusTxn &txn) override;
    void busDone(BusTxn &txn) override;

    /** Deliver an incoming network message (called by the router). */
    void netReceive(const Msg &msg);

    /** True when no transaction state is pending (quiescence). */
    bool idle() const;

    /**
     * True when this controller holds no transient state for
     * @p line_addr: no home/requester transaction, no writeback or
     * parked request, no queued or in-flight handler touching it.
     * Used by the invariant checker to decide when the full
     * directory-agreement check for a line is valid mid-run.
     */
    bool lineQuiet(Addr line_addr) const;

    // --- statistics (Table 6 / Table 7 inputs) ---

    /** Total requests dispatched to protocol engines. */
    std::uint64_t totalArrivals() const;
    /** Total engine-busy ticks, summed over engines. */
    Tick totalOccupancy() const;
    /** Engine-busy ticks of engine @p e. */
    Tick engineOccupancy(unsigned e) const;
    /** Requests handled by engine @p e. */
    std::uint64_t engineArrivals(unsigned e) const;
    /** Mean queuing delay (ticks) of engine @p e. */
    double engineQueueDelay(unsigned e) const;
    /** Mean queuing delay over all engines (ticks). */
    double meanQueueDelay() const;

    unsigned numEngines() const
    {
        return static_cast<unsigned>(engines_.size());
    }

    /** Reset measurement state (start of measured phase). */
    void resetStats();

    /** Dump transaction state for deadlock diagnosis. */
    void dumpState(std::ostream &os) const;

    stats::Group &statGroup() { return statGroup_; }

    stats::Scalar statBusRequests{"bus_requests",
        "bus-side requests dispatched"};
    stats::Scalar statNetRequests{"net_requests",
        "network-side requests dispatched"};
    stats::Scalar statNetResponses{"net_responses",
        "network-side responses dispatched"};
    stats::Scalar statMerged{"merged_requests",
        "bus requests merged into a pending remote transaction"};
    stats::Scalar statParked{"parked_requests",
        "requests parked behind a busy home line"};
    stats::Scalar statNacks{"owner_nacks",
        "forwards nacked by a stale owner"};
    stats::Scalar statLivelockPromotions{"livelock_promotions",
        "bus requests promoted by the livelock exception"};
    stats::Scalar statDirectWBs{"direct_writebacks",
        "writebacks forwarded on the direct data path"};
    stats::Scalar statWbStalls{"wb_stalls",
        "requests stalled behind an unacknowledged writeback"};
    stats::Scalar statNackRetries{"nack_retries",
        "nacked requests re-attempted under the retry policy"};
    stats::Scalar statRetryBackoffTicks{"retry_backoff_ticks",
        "total ticks spent waiting out retry backoff"};

    // --- fail-stop recovery statistics (PR 6) ---
    stats::Scalar statCrashes{"crashes",
        "fail-stop controller crashes injected"};
    stats::Scalar statCrashDropped{"crash_dropped_items",
        "queued network items dropped at a crash (re-delivered by "
        "the transport)"};
    stats::Scalar statRecoveryNacks{"recovery_nacks",
        "requests nacked while the home rebuilt its directory"};
    stats::Scalar statDirRebuilds{"dir_rebuilds",
        "directory reconstructions completed"};
    stats::Scalar statRebuildLines{"rebuild_lines",
        "directory entries rebuilt from peer probe responses"};
    stats::Scalar statMissTimeouts{"miss_timeouts",
        "miss timers expired at the requesting cache"};
    stats::Scalar statTimeoutResends{"timeout_resends",
        "requests resent by the timeout ladder"};
    stats::Scalar statRecoveryProbes{"recovery_probes",
        "home-liveness probes sent by the timeout ladder"};
    stats::Scalar statDegradedEntries{"degraded_entries",
        "timeout ladders exhausted into degraded mode"};
    stats::Scalar statStrayDrops{"stray_drops",
        "stale responses for state lost in a crash, dropped"};

    // --- integrity statistics (PR 7) ---
    stats::Scalar statPoisonNacks{"poison_nacks",
        "requests bounced off a poisoned (dead) line"};

    std::uint64_t poisonNacks() const
    {
        return static_cast<std::uint64_t>(statPoisonNacks.value());
    }

    std::uint64_t crashes() const
    {
        return static_cast<std::uint64_t>(statCrashes.value());
    }
    std::uint64_t dirRebuilds() const
    {
        return static_cast<std::uint64_t>(statDirRebuilds.value());
    }
    std::uint64_t rebuildLines() const
    {
        return static_cast<std::uint64_t>(statRebuildLines.value());
    }
    std::uint64_t recoveryNacks() const
    {
        return static_cast<std::uint64_t>(statRecoveryNacks.value());
    }
    std::uint64_t missTimeouts() const
    {
        return static_cast<std::uint64_t>(statMissTimeouts.value());
    }
    std::uint64_t timeoutResends() const
    {
        return static_cast<std::uint64_t>(statTimeoutResends.value());
    }
    std::uint64_t recoveryProbes() const
    {
        return static_cast<std::uint64_t>(statRecoveryProbes.value());
    }
    std::uint64_t degradedEntries() const
    {
        return static_cast<std::uint64_t>(statDegradedEntries.value());
    }
    std::uint64_t strayDrops() const
    {
        return static_cast<std::uint64_t>(statStrayDrops.value());
    }
    /** Longest restart-to-rebuild-complete latency seen (ticks). */
    Tick reconstructionTicksMax() const
    {
        return reconstructionTicksMax_;
    }

    std::uint64_t nackRetries() const
    {
        return static_cast<std::uint64_t>(statNackRetries.value());
    }
    Tick retryBackoffTicks() const
    {
        return static_cast<Tick>(statRetryBackoffTicks.value());
    }

  private:
    /** Dispatch queue identities, in descending priority. */
    enum Queue : unsigned
    {
        QNetResponse = 0,
        QNetRequest = 1,
        QBusRequest = 2,
        NumQueues = 3,
    };

    /**
     * One unit of work for a protocol engine. The narrow fields sit
     * together at the end so the item packs into 96 bytes: a
     * controller pointer plus an item fits an event's inline capture.
     */
    struct DispatchItem
    {
        Msg msg;                    ///< valid when !isBus
        std::uint64_t busTxnId = 0; ///< valid when isBus
        Addr lineAddr = 0;
        Tick enqueueTick = 0;
        unsigned srcQueue = 0; ///< queue last enqueued on (tracing)
        BusCmd busCmd = BusCmd::Read;
        bool isBus = false;
        bool counted = false; ///< already counted as an arrival
        /**
         * Replayed after a crash (or resent on a miss timeout): the
         * outgoing request carries Msg::recoveryResend so a home that
         * already granted this node ownership re-grants from memory
         * instead of nacking the apparent duplicate.
         */
        bool crashResend = false;
    };
    using ItemList = PooledVector<DispatchItem>;

    /** A protocol engine (FSM or protocol processor). */
    struct Engine
    {
        unsigned idx = 0;
        bool busy = false;
        Tick busyStart = 0;
        /** Line of the handler in flight (valid while busy). */
        Addr curLine = 0;
        bool curLineValid = false;
        PooledDeque<DispatchItem> queues[NumQueues];
        unsigned netBypass = 0; ///< net requests since a bus request
        unsigned stallStreak = 0; ///< consecutive injected stalls
        /** Handler in flight for the tracer (0xff = none). */
        std::uint8_t curHandler = 0xff;
        int curExtraTargets = 0;
        /**
         * Item in flight (valid while busy): a crash replays it from
         * scratch after the restart, since the handler's scheduled
         * continuations die with the epoch.
         */
        DispatchItem curItem;
        bool curItemValid = false;
        // measurement
        Tick occupancyTicks = 0;
        std::uint64_t arrivals = 0;
        double queueDelaySum = 0.0;
        std::uint64_t queueDelayCount = 0;
    };

    /** Active home-side transaction for a local line. */
    struct HomeTxn
    {
        NodeId requester = 0;
        bool excl = false;
        bool localRequest = false;
        std::uint64_t busTxnId = 0; ///< when localRequest
        unsigned acksExpected = 0;
        std::uint64_t dataVersion = 0;
        bool haveData = false;
        /** Original request retained for owner-nack retry. */
        DispatchItem original;
    };

    /** Requester-side pending remote transaction. */
    struct ReqPending
    {
        bool excl = false;
        PooledVector<std::uint64_t> busTxns;
        ItemList conflicting;
    };

    /** Writeback buffer entry (data awaiting the home's ack). */
    struct WbEntry
    {
        std::uint64_t version = 0;
    };

    /**
     * Context of a handler execution in flight. Lives in a pool block
     * (see ExecPtr), so a warm controller recycles the same few.
     */
    struct Exec
    {
        unsigned engine = 0;
        HandlerId handler = HandlerId::BusReadRemote;
        Addr lineAddr = 0;
        int extraTargets = 0;
        CcBusOp busOp = CcBusOp::None;
        std::uint64_t version = 0;  ///< data version once known
        bool fetchFailed = false;   ///< bus fetch found no data
        bool fetchShared = false;   ///< a cache retained a copy
        bool fetchDirty = false;    ///< a Modified copy was demoted
        /**
         * Protocol consequences, run at the respond point. Every
         * handler's capture fits the inline storage (beginHandler
         * asserts it); the largest is ownerNacked's DispatchItem plus
         * a controller pointer and a backoff.
         */
        SmallCallback<void(Exec &, Tick)> action;
    };
    using ExecPtr = pool::Ptr<Exec>;

    // enqueue / dispatch machinery
    void enqueue(unsigned queue, DispatchItem item,
                 bool to_front = false);
    /** Bus items wait on QBusRequest, messages per msgTraits(). */
    static unsigned queueOf(const DispatchItem &item);
    /** Re-enqueue @p items at their queue fronts, in order. */
    void requeueFront(const ItemList &items);
    unsigned engineFor(Addr line_addr) const;
    void tryDispatch(unsigned engine_idx);
    bool pickItem(Engine &e, DispatchItem &out);
    void startItem(unsigned engine_idx, DispatchItem item);
    /** The one dispatch switch: hand @p item to its handler. */
    void serve(unsigned engine_idx, const DispatchItem &item);

    // handler execution
    /**
     * Start handler @p h on @p engine_idx; @p action (a callable
     * taking (Exec &, Tick), or nullptr for none) runs at the respond
     * point.
     */
    template <typename F = std::nullptr_t>
    void beginHandler(unsigned engine_idx, HandlerId h, Addr line,
                      int extra_targets, CcBusOp bus_op,
                      F &&action = nullptr);
    /** Schedule @p ex's bus operation or its respond point. */
    void runHandler(ExecPtr ex);
    void respondPhase(ExecPtr ex, Tick t);
    void finishHandler(unsigned engine_idx, Tick free_at);

    /**
     * The guard stage: decide whether @p item is served now. A home
     * request waits out a busy line and bounces off a poisoned one
     * (and off a rebuilding directory); a writeback parks across a
     * rebuild; a response whose transaction died in a crash is
     * dropped. Every refusal releases the engine itself.
     */
    bool admit(unsigned engine_idx, const DispatchItem &item);
    void notePoison(Addr line_addr);
    /** Answer a home request with @p nack (Recovery/PoisonNack). */
    void nackRequest(unsigned engine_idx, const Msg &msg, MsgType nack);
    /** Fence a local processor request off a poisoned line. */
    void fenceDeadLine(unsigned engine_idx, const DispatchItem &item);
    void parkAtHome(unsigned engine_idx, const DispatchItem &item);
    /**
     * True when a response-type message refers to transient state
     * this controller no longer holds (lost in a crash): count and
     * drop it instead of asserting.
     */
    bool strayDrop(const char *what);

    // bus-side front end
    static DispatchItem busItem(std::uint64_t txn_id, Addr line,
                                BusCmd cmd);
    SupplyDecision observeOwnOp(BusTxn &txn, SnoopResult combined,
                                bool local);
    SupplyDecision observeHomeRequest(BusTxn &txn);
    /** Park a processor request while the card is down. */
    SupplyDecision parkForRestart(const BusTxn &txn);
    /** Merge a read into, or queue behind, a pending transaction. */
    void joinPending(ReqPending &rp, const DispatchItem &item);
    /**
     * Send writeback data home on the direct data path, or (ablated)
     * through an engine's send handler.
     */
    void sendHome(MsgType type, Addr line, std::uint64_t version,
                  bool retains, Tick t, bool direct);
    void releaseWbWaiting(Addr line_addr);

    // protocol handlers, one per Table 4 handler group
    void busSendWriteBack(unsigned engine_idx, const DispatchItem &item);
    void busHomeRequest(unsigned engine_idx, const DispatchItem &item);
    void busRemoteRequest(unsigned engine_idx, const DispatchItem &item);
    void homeRequest(unsigned engine_idx, const DispatchItem &item);
    /**
     * Fetch the line from home memory, reply with data and record the
     * requester as owner (read-exclusive) or sharer (read), joining
     * the current sharers when @p join is set.
     */
    void grantFromMemory(unsigned engine_idx, const DispatchItem &item,
                         HandlerId h, bool join = true);
    /** Open a home transaction invalidating the nodes in @p targets. */
    void collectAcks(unsigned engine_idx, const DispatchItem &item,
                     HandlerId h, std::uint64_t targets);
    void ownerForward(unsigned engine_idx, const Msg &msg);
    /** Answer forward @p fwd with the line's data. */
    void ownerSupply(const Msg &fwd, std::uint64_t version,
                     bool retains, Tick t);
    void sharerInval(unsigned engine_idx, const Msg &msg);
    void invalAck(unsigned engine_idx, const Msg &msg);
    void requesterData(unsigned engine_idx, const Msg &msg);
    void completeRequesterFill(Addr line_addr, std::uint64_t version,
                               Tick t);
    void ownerDataToHome(unsigned engine_idx, const Msg &msg);
    void sharingWriteBack(unsigned engine_idx, const Msg &msg);
    /** Absorb a writeback, applied only if @p d names its sender. */
    void absorbWriteBack(unsigned engine_idx, HandlerId h,
                         const Msg &msg, const DirEntry &d);
    void ownershipAck(unsigned engine_idx, const Msg &msg);
    void requestNacked(unsigned engine_idx, const Msg &msg);
    void poisonNacked(unsigned engine_idx, const Msg &msg);
    void ownerNacked(unsigned engine_idx, const Msg &msg);
    void dirProbe(unsigned engine_idx, const Msg &msg);
    void dirProbeResponse(unsigned engine_idx, const Msg &msg);

    // shared handler plumbing
    void openHomeTxn(const DispatchItem &item, unsigned acks = 0);
    void closeHomeTxn(Addr line_addr, Tick t);
    /** Re-enqueue requests parked behind a now-clear home line. */
    void drainHomeWaiting(Addr line_addr, Tick t);
    /** Posted directory updates: no remote copy, an owner, sharers. */
    void dirHome(Addr line_addr, Tick t);
    void dirOwner(Addr line_addr, NodeId owner, Tick t);
    void dirShared(Addr line_addr, std::uint64_t sharers, Tick t);
    /** @p d's sharer bitmask without node @p skip. */
    std::uint64_t sharersBut(const DirEntry &d, NodeId skip) const;
    /** A pending transaction's bus requests, as engine work. */
    static ItemList pendingItems(Addr line_addr, const ReqPending &rp);
    void sendMsg(MsgType type, Addr line_addr, NodeId dst,
                 NodeId requester, std::uint64_t version, bool retains,
                 Tick t, bool recovery_resend = false);
    /**
     * Record a nack-driven retry of @p line and return its backoff
     * delay; escalates with a FatalError diagnostic when the
     * bounded policy's budget is exhausted.
     */
    Tick retryDelay(Addr line, const char *what);
    /** Post incoming writeback data to the home memory. */
    void writeHomeMemory(Addr line_addr, std::uint64_t version,
                         Tick t);

    // crash-recovery helpers (PR 6)
    /** Forget every engine and all transient handler state. */
    void dropTransientState();
    /** All probes answered: cross-check, go Normal, replay. */
    void finishRebuild(Tick t);
    /** Re-enqueue everything parked across the outage. */
    void replayAfterRestart(Tick t);
    /** Answer a peer's DirProbe from local caches + wb buffer. */
    void answerDirProbe(const Msg &msg, Tick t);
    /** Apply one DirProbeResp to the rebuilding directory. */
    void applyProbeResp(const Msg &msg);
    /** Count one peer's DirProbeDone (version = its responses). */
    void applyProbeDone(const Msg &msg);
    /**
     * Finish the rebuild once every probe is fully absorbed: every
     * Done received AND every counted response applied.
     */
    void maybeFinishRebuild(Tick t);

    std::string name_;
    EventQueue &eq_;
    NodeId node_;
    CcParams params_;
    /** Crash recovery armed (FaultTolerance::Recovery and up). */
    bool recovery_;
    Bus &bus_;
    Network &net_;
    AddressMap &map_;
    DirectoryStore &dir_;
    MemoryController *memory_ = nullptr;
    LocalCacheProbe *probe_ = nullptr;
    MsgRouter *router_ = nullptr;
    ReliableTransport *xport_ = nullptr;
    obs::Tracer *tracer_ = nullptr;
    std::function<Tick()> stallHook_;
    /** Per-line nack retry bookkeeping (see RetryTracker). */
    RetryTracker retries_;
    OccupancyModel model_;
    int busAgentId_ = -1;

    std::vector<Engine> engines_;
    // Per-line transaction state. The maps draw their nodes from the
    // pool but stay unordered_maps: crash(), answerDirProbe(),
    // drainWbHomedAt() and replayPendingHomedAt() walk them in
    // iteration order, and that order reaches simulated state.
    PooledMap<Addr, HomeTxn> homeBusy_;
    /** Local-line bus requests deferred but not yet dispatched. */
    PooledMap<Addr, unsigned> deferredLocal_;
    PooledMap<Addr, ItemList> homeWaiting_;
    PooledMap<Addr, ReqPending> reqPending_;
    PooledMap<Addr, WbEntry> wbBuffer_;
    /**
     * Local requests stalled behind an unacknowledged writeback of
     * the same line: they may only be sent to the home after the
     * home has absorbed our writeback, preserving the protocol's
     * request-follows-writeback ordering.
     */
    PooledMap<Addr, ItemList> wbWaiting_;
    /** Bus fetches in flight, by bus transaction id. */
    PooledMap<std::uint64_t, ExecPtr> fetches_;

    // --- crash-recovery state (PR 6) ---
    CcState state_ = CcState::Normal;
    /**
     * Bumped at each crash. Scheduled continuation lambdas capture
     * the epoch they were created in and no-op when it is stale, so
     * a handler's tail can never touch post-crash engine state.
     */
    std::uint64_t epoch_ = 0;
    /**
     * Work the controller still owes an answer for, collected at
     * crash time and parked across the outage; replayed once the
     * restart (and any directory rebuild) completes.
     */
    std::deque<DispatchItem> crashReplay_;
    /** Directory SRAM content died with the crash. */
    bool dirLost_ = false;
    /** WriteBack/SharingWB messages parked during a rebuild. */
    std::deque<Msg> rebuildParkedWb_;
    /** DirProbeDone responses still outstanding. */
    unsigned probeDonesOutstanding_ = 0;
    /**
     * Per-line DirProbeResp accounting across the rebuild: each
     * DirProbeDone carries how many responses its peer sent, and the
     * rebuild may only complete once every counted response has been
     * applied — on a two-engine controller the Done can overtake a
     * response still occupying the other engine.
     */
    std::uint64_t probeRespsExpected_ = 0;
    std::uint64_t probeRespsApplied_ = 0;
    /** Tick the controller restarted (reconstruction latency). */
    Tick restartTick_ = 0;
    Tick reconstructionTicksMax_ = 0;
    /** Per-line miss-timeout escalation ladder. */
    struct MissLadder
    {
        unsigned resends = 0;
        unsigned probes = 0;
    };
    PooledMap<Addr, MissLadder> missLadders_;
    DegradedHook degradedHook_;
    RebuildCheckHook rebuildCheckHook_;
    CacheScanFn cacheScan_;
    /** Poisoned local lines (PR 7); requests bounce forever. */
    std::unordered_set<Addr> deadLines_;
    PoisonFence poisonFence_;
    /** Permanently retired (degraded mode); never serves again. */
    bool deadForever_ = false;

    stats::Group statGroup_;
};

} // namespace ccnuma

#endif // CCNUMA_CC_COHERENCE_CONTROLLER_HH
