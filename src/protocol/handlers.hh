/**
 * @file
 * Protocol handler specifications (the paper's Table 4).
 *
 * Every handler is described as a sequence of sub-operations in three
 * phases:
 *
 *   pre      engine-occupying work up to the point where the handler
 *            either issues its local SMP-bus operation or (if none)
 *            sends its response;
 *   busOp    an optional local bus/memory operation whose duration is
 *            determined dynamically by the simulator (the engine stays
 *            occupied while it waits — handler occupancy includes SMP
 *            bus and local memory access times);
 *   post     work performed after the response is sent (e.g. the
 *            posted directory update the paper postpones until after
 *            issuing responses).
 *
 * perTarget lists sub-ops repeated for each additional message target
 * (e.g. one invalidation send per sharer).
 *
 * The 23 handlers of Table 4 appear first; the remaining entries are
 * the bookkeeping handlers any real implementation of this protocol
 * also needs (writeback absorption, owner nacks) and the recovery
 * handlers. Writeback acks need none: the network interface retires
 * the writeback-buffer entry without dispatching an engine.
 */

#ifndef CCNUMA_PROTOCOL_HANDLERS_HH
#define CCNUMA_PROTOCOL_HANDLERS_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "protocol/occupancy.hh"
#include "sim/types.hh"

namespace ccnuma
{

/** Identifiers for all protocol handlers. */
enum class HandlerId : std::uint8_t
{
    // --- the 23 handlers of Table 4 ---
    BusReadRemote,
    BusReadExclRemote,
    BusReadLocalDirtyRemote,
    BusReadExclLocalCachedRemote,
    RemoteReadToHomeClean,
    RemoteReadToHomeDirtyRemote,
    RemoteReadExclToHomeUncached,
    RemoteReadExclToHomeShared,
    RemoteReadExclToHomeDirty,
    ReadFromOwnerForHome,
    ReadFromOwnerForRemote,
    ReadExclFromOwnerForHome,
    ReadExclFromOwnerForRemote,
    OwnerDataToHomeRead,
    OwnerWriteBackToHomeRemoteRead,
    OwnerDataToHomeReadExcl,
    OwnerAckToHomeRemoteReadExcl,
    InvalRequestAtSharer,
    InvalAckMoreExpected,
    InvalAckLastLocal,
    InvalAckLastRemote,
    DataReplyForRemoteRead,
    DataReplyForRemoteReadExcl,
    // --- bookkeeping handlers (not separately listed in Table 4) ---
    WriteBackAtHome,
    SharingWriteBackAtHome,
    OwnerNackAtHome,
    // --- recovery handlers (PR 6, Table 2 sub-op conventions) ---
    DirProbeAtSharer,   ///< scan caches, report lines homed at prober
    DirProbeRespAtHome, ///< fold one reported line into the rebuild
    NumHandlers,
};

constexpr unsigned numHandlers =
    static_cast<unsigned>(HandlerId::NumHandlers);

/** Number of handlers that appear in the paper's Table 4. */
constexpr unsigned numTable4Handlers = 23;

/** Local bus operation a handler performs while occupied. */
enum class CcBusOp : std::uint8_t
{
    None,          ///< no local bus operation
    FetchRead,     ///< read the line from local memory/caches
    FetchReadExcl, ///< read the line and invalidate local copies
    InvalOnly,     ///< invalidate local copies, no data
};

/** A counted sub-operation. */
using SubOpCount = std::pair<SubOp, int>;

/** Static description of one protocol handler. */
struct HandlerSpec
{
    HandlerId id;
    const char *name;       ///< Table 4 row label
    bool readsDirectory;    ///< adds dynamic DRAM wait on dir$ miss
    /**
     * The handler moves a cache line through the controller (fetch,
     * data reply, writeback absorption): the engine stays occupied
     * for the remainder of the line transfer after the critical
     * beat. This is the "SMP bus and local memory access times"
     * component of the paper's handler occupancies; it does not add
     * to the critical-word latency.
     */
    bool movesData = false;
    std::vector<SubOpCount> pre;
    CcBusOp busOp = CcBusOp::None;
    std::vector<SubOpCount> post;
    std::vector<SubOpCount> perTarget;

    /** Fixed pre-phase occupancy on @p m. */
    Tick preCost(const OccupancyModel &m, int extra_targets = 0) const;

    /** Fixed post-phase occupancy on @p m. */
    Tick postCost(const OccupancyModel &m) const;

    /**
     * Total no-contention occupancy for Table 4, assuming the given
     * fixed estimate for the bus operation (0 when busOp == None).
     */
    Tick nominalOccupancy(const OccupancyModel &m, Tick bus_estimate,
                          int extra_targets = 0) const;
};

/** Look up the static spec for @p id. */
const HandlerSpec &handlerSpec(HandlerId id);

/** All handler specs, Table 4 order first. */
const std::vector<HandlerSpec> &allHandlerSpecs();

const char *handlerName(HandlerId id);

} // namespace ccnuma

#endif // CCNUMA_PROTOCOL_HANDLERS_HH
