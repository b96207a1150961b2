/**
 * @file
 * Split-transaction SMP bus model.
 *
 * Models the paper's 100 MHz, 16-byte, fully pipelined
 * split-transaction bus with separate address and data paths:
 *
 *  - one address strobe per two bus cycles (4 ticks);
 *  - snooping caches respond to each address phase and may supply
 *    data cache-to-cache;
 *  - the memory controller supplies local lines when no cache or
 *    coherence action intervenes;
 *  - the coherence controller may DEFER a transaction and supply the
 *    reply later through the data bus (split transaction), which is
 *    how remote misses and remote-dirty local lines are served;
 *  - data transfers move a 128-byte line in 8 bus cycles and drive
 *    the critical quad-word first, so the requester restarts after
 *    the first beat while the data bus stays busy for the full line.
 */

#ifndef CCNUMA_BUS_BUS_HH
#define CCNUMA_BUS_BUS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/memory_controller.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ccnuma
{

namespace obs
{
class Tracer;
} // namespace obs

/** Bus transaction commands. */
enum class BusCmd : std::uint8_t
{
    Read,      ///< read a line (fill Shared/Exclusive)
    ReadExcl,  ///< read with intent to modify (fill Modified)
    Inval,     ///< invalidate copies, no data transfer
    WriteBack, ///< write a dirty line to memory / home
};

const char *busCmdName(BusCmd cmd);

/** Result a snooping cache reports for an address phase. */
enum class SnoopResult : std::uint8_t
{
    None,         ///< no copy
    Shared,       ///< holds a copy, cannot/need not supply
    SharedSupply, ///< holds a Shared copy of a remote line; can supply
    DirtySupply,  ///< holds Modified copy; will supply and transition
};

/** How a transaction's data gets supplied. */
enum class SupplyDecision : std::uint8_t
{
    Memory,        ///< local memory supplies
    Cache,         ///< snooping cache supplies cache-to-cache
    CacheReflect,  ///< cache supplies; memory is updated in parallel
    Deferred,      ///< coherence controller replies later
    NoData,        ///< no data movement needed (Inval)
};

/** An in-flight bus transaction. */
struct BusTxn
{
    std::uint64_t id = 0;
    BusCmd cmd = BusCmd::Read;
    Addr lineAddr = 0;
    int requester = -1;      ///< agent id on this bus
    bool fromCC = false;     ///< issued by the coherence controller
    bool sharedSeen = false; ///< another cache holds a copy
    /** A Modified copy supplied the data (and was demoted). */
    bool dirtySupplied = false;
    /** Data delivery has been scheduled (fill is imminent). */
    bool fillScheduled = false;
    /**
     * Set by the coherence hook when the bus-side directory shows no
     * remote copies, allowing a local read to fill Exclusive.
     */
    bool exclusiveOk = false;
    SupplyDecision supply = SupplyDecision::Memory;
    std::uint64_t dataVersion = 0; ///< checker payload riding the data
    Tick issueTick = 0;
    Tick strobeTick = 0;
    Tick dataTick = 0;       ///< first data beat (requester restart)
};

/** Interface for snooping bus agents (cache units). */
class BusAgent
{
  public:
    virtual ~BusAgent() = default;

    /**
     * First snoop pass: may this transaction proceed? An agent with
     * a conflicting write miss in flight (its exclusive fill is bus-
     * ordered but not yet installed) answers true and the bus
     * retries the address phase later — the split-transaction bus's
     * standard conflict-resolution mechanism. No state may change.
     */
    virtual bool busRetryCheck(const BusTxn &txn) const
    {
        (void)txn;
        return false;
    }

    /**
     * Observe an address phase for a transaction issued by another
     * agent. State transitions are applied immediately; a supplier
     * fills txn.dataVersion.
     */
    virtual SnoopResult busSnoop(BusTxn &txn) = 0;

    /**
     * Requester notification: data delivered (first beat) or, for
     * non-data commands, transaction complete.
     */
    virtual void busDone(BusTxn &txn) = 0;
};

/**
 * Hook through which the node's coherence controller participates in
 * every address phase (it holds the bus-side directory copy).
 */
class BusCoherenceHook
{
  public:
    virtual ~BusCoherenceHook() = default;

    /**
     * Decide how the transaction is supplied, after cache snoops.
     * @param txn the transaction (may be annotated)
     * @param combined strongest cache snoop result
     * @return supply decision; Deferred means the controller will
     *         call Bus::deferredRespond() later.
     */
    virtual SupplyDecision busObserve(BusTxn &txn,
                                      SnoopResult combined) = 0;

    /**
     * Notification that a WriteBack the hook claimed (by returning
     * NoData from busObserve) has finished its data transfer and is
     * now in the controller's hands (direct bus-to-network path).
     */
    virtual void busCaptureWriteBack(BusTxn &txn, Tick data_ready)
    {
        (void)txn;
        (void)data_ready;
    }
};

/** Bus timing parameters (ticks = compute-processor cycles). */
struct BusParams
{
    Tick arbLatency = 4;        ///< request to earliest strobe
    Tick strobeSpacing = 4;     ///< Table 1: strobe to next strobe
    Tick snoopLatency = 4;      ///< strobe to snoop result
    Tick c2cDataLatency = 16;   ///< strobe to cache-to-cache data
    Tick beatTicks = 2;         ///< one 16-byte beat per bus cycle
    unsigned busWidthBytes = 16;
    unsigned maxOutstanding = 16;
};

/**
 * The split-transaction bus. All callbacks (snoop, busDone, the
 * coherence hook) execute inside bus events in deterministic agent
 * order.
 */
class Bus
{
  public:
    Bus(const std::string &name, EventQueue &eq, const BusParams &p,
        unsigned line_bytes);
    ~Bus();

    /** Register a snooping agent. @return its agent id. */
    int addAgent(BusAgent *agent);

    void setCoherenceHook(BusCoherenceHook *hook) { hook_ = hook; }
    void setMemory(MemoryController *mem) { memory_ = mem; }

    const BusParams &params() const { return params_; }

    /** The node's cache line size: one data transfer's payload. */
    unsigned lineBytes() const { return lineBytes_; }

    /**
     * Issue a transaction. The requester's busDone() fires when data
     * is delivered (or when a non-data command completes).
     * @param data_version checker payload for WriteBack data
     * @param from_cc transaction issued by the coherence controller
     *        itself (never deferred; may complete with NoData)
     * @return transaction id
     */
    std::uint64_t request(BusCmd cmd, Addr line_addr, int requester,
                          std::uint64_t data_version = 0,
                          bool from_cc = false);

    /**
     * Complete a previously deferred transaction: the coherence
     * controller supplies data (arriving from the network or from a
     * local fetch) no earlier than @p earliest.
     */
    void deferredRespond(std::uint64_t txn_id,
                         std::uint64_t data_version, Tick earliest);

    /** Number of transactions currently open. */
    std::size_t numOutstanding() const { return open_.size(); }

    /** @return true while any open transaction targets @p line. */
    bool
    lineBusy(Addr line_addr) const
    {
        for (const auto &kv : open_) {
            if (kv.second.lineAddr == line_addr)
                return true;
        }
        return false;
    }

    /**
     * Observation tap invoked after each transaction completes (the
     * requester's busDone has run). Used by the invariant checker;
     * null when disabled.
     */
    void
    setCompletionTap(std::function<void(const BusTxn &)> tap)
    {
        completionTap_ = std::move(tap);
    }

    /**
     * Record completed transactions with the observability tracer.
     * The bus does not know which node it belongs to, so the machine
     * passes the owning node id alongside (null tracer = off).
     */
    void
    setTracer(obs::Tracer *t, NodeId node)
    {
        tracer_ = t;
        tracerNode_ = node;
    }

    /**
     * @return true if @p txn_id is open and its data delivery is
     * already scheduled (its fill will complete independently).
     */
    bool
    fillScheduled(std::uint64_t txn_id) const
    {
        auto it = open_.find(txn_id);
        return it != open_.end() && it->second.fillScheduled;
    }

    /** @return true while @p txn_id has not completed. */
    bool isOpen(std::uint64_t txn_id) const
    {
        return open_.count(txn_id) != 0;
    }

    stats::Group &statGroup() { return statGroup_; }

    stats::Scalar statTxns{"transactions", "address phases issued"};
    stats::Scalar statDeferred{"deferred",
        "transactions deferred by the coherence controller"};
    stats::Scalar statC2C{"cache_to_cache",
        "transactions supplied cache-to-cache"};
    stats::Scalar statRetries{"retries",
        "address phases retried due to a conflicting write miss"};
    stats::Average statArbWait{"arb_wait",
        "ticks from request to address strobe"};
    stats::Scalar statAddrBusy{"addr_busy_ticks",
        "ticks the address bus was occupied"};
    stats::Scalar statDataBusy{"data_busy_ticks",
        "ticks the data bus was occupied"};

  private:
    void kick();
    void addressPhase(std::uint64_t txn_id);
    /** Schedule the data phase; @return first-beat tick. */
    Tick scheduleData(BusTxn &txn, Tick earliest);
    /** Notify the requester and retire the transaction at @p when. */
    void deliver(std::uint64_t txn_id, Tick when);

    unsigned beatsPerLine() const
    {
        return (lineBytes_ + params_.busWidthBytes - 1) /
               params_.busWidthBytes;
    }

    std::string name_;
    EventQueue &eq_;
    BusParams params_;
    unsigned lineBytes_;
    std::vector<BusAgent *> agents_;
    BusCoherenceHook *hook_ = nullptr;
    MemoryController *memory_ = nullptr;

    /** Requests awaiting an address-bus grant, in arrival order. */
    PooledDeque<std::uint64_t> pendingGrants_;
    std::function<void(const BusTxn &)> completionTap_;
    obs::Tracer *tracer_ = nullptr;
    NodeId tracerNode_ = 0;
    /** Open transactions by id; nodes come from the pool. */
    PooledMap<std::uint64_t, BusTxn> open_;
    std::uint64_t nextId_ = 1;
    unsigned granted_ = 0;
    Tick nextStrobeAllowed_ = 0;
    Tick dataBusFreeAt_ = 0;

    /**
     * Reusable arbitration event: request() and deliver() fire one
     * kick per tick at most, with no per-kick allocation. The event's
     * scheduled() bit replaces the old kickScheduled_ flag.
     */
    class KickEvent : public Event
    {
      public:
        explicit KickEvent(Bus &bus) : bus_(bus) {}
        void process() override { bus_.kick(); }
        const char *name() const override { return "bus kick"; }

      private:
        Bus &bus_;
    };
    KickEvent kickEvent_{*this};

    stats::Group statGroup_;
};

} // namespace ccnuma

#endif // CCNUMA_BUS_BUS_HH
