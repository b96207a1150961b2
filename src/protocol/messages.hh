/**
 * @file
 * Coherence protocol message types.
 *
 * The protocol is the paper's: full-map directory, invalidation-based,
 * write-back, sequentially consistent. Remote owners respond directly
 * to remote requesters with data; invalidation acknowledgements are
 * collected only at the home node. Writebacks ride the controllers'
 * direct bus-to-network data path and are acknowledged by the home so
 * the owner can retire its writeback buffer entry.
 */

#ifndef CCNUMA_PROTOCOL_MESSAGES_HH
#define CCNUMA_PROTOCOL_MESSAGES_HH

#include <cstdint>

#include "sim/types.hh"

namespace ccnuma
{

/** Network message types exchanged between coherence controllers. */
enum class MsgType : std::uint8_t
{
    // requester -> home
    ReadReq,        ///< read a line
    ReadExclReq,    ///< read exclusive (store miss / upgrade)

    // home -> owner
    FwdRead,        ///< fetch line for a (possibly remote) reader
    FwdReadExcl,    ///< fetch+invalidate for a (possibly remote) writer

    // home -> sharer
    InvalReq,       ///< invalidate your copy, ack the home

    // sharer -> home
    InvalAck,

    // home/owner -> requester
    DataReply,      ///< line data for a read (install Shared)
    DataExclReply,  ///< line data for a read-excl (install Modified)

    // owner -> home (closing a forwarded request)
    OwnerDataToHome,     ///< data for a local read at the home
    OwnerDataExclToHome, ///< data for a local read-excl at the home
    SharingWB,           ///< demotion writeback (read by remote req.)
    OwnershipAck,        ///< data went straight to remote requester
    OwnerNack,           ///< owner no longer has the line; retry

    // owner -> home
    WriteBack,      ///< eviction of a dirty remote line
    // home -> owner
    WriteBackAck,   ///< home absorbed the writeback

    // home -> requester
    HomeNack,       ///< you own this line; serve the request locally

    // recovery (PR 6) -- all header-only
    // home -> requester
    RecoveryNack,    ///< home is rebuilding its directory; back off
    // recovering home -> peer
    DirProbe,        ///< report every line of mine you hold
    // peer -> recovering home
    DirProbeResp,    ///< one cached/dirty line homed at the prober
    DirProbeDone,    ///< probe scan finished (version = line count)
    // requester -> home (timeout ladder)
    RecoveryProbe,   ///< are you alive? answer out-of-band
    // home -> requester
    RecoveryProbeAck,///< home is alive and serving

    // integrity (PR 7) -- header-only
    // home -> requester
    PoisonNack,      ///< line is dead (uncorrectable corruption ate
                     ///< its only copy); the requester must fence
};

const char *msgTypeName(MsgType t);

/** @return true for messages that carry a full cache line. */
bool msgCarriesData(MsgType t);

/** The dispatch queue a message waits on at its receiver. */
enum class MsgQueue : std::uint8_t
{
    Request,   ///< network request queue
    Response,  ///< network response queue (served first)
    Interface, ///< answered at the network interface, no engine
};

/** Transient state the receiver must hold for a message to apply. */
enum class MsgNeeds : std::uint8_t
{
    None,
    HomeTxn, ///< an open home-side transaction for the line
    ReqTxn,  ///< an open requester-side transaction for the line
};

/** What a controller crash does with a queued or in-flight copy. */
enum class OnCrash : std::uint8_t
{
    /**
     * Dropped: its sender re-sends it (requests, via the miss
     * ladder) or it answers state that died with the card.
     */
    Drop,
    /**
     * Parked for replay after the restart: its sender waits on it
     * forever (writebacks hold a buffer entry until acked; forwards
     * and invalidations block a home transaction).
     */
    Park,
};

/** What a home rebuilding its directory does with a message. */
enum class OnRebuild : std::uint8_t
{
    Serve, ///< no directory judgement needed
    /**
     * A fresh request for a home line: bounced with RecoveryNack.
     * The same requests are also bounced off a poisoned line and
     * parked behind a busy one.
     */
    Nack,
    Park, ///< writeback data held until the directory is rebuilt
};

/** One row of the message-traits table. */
struct MsgTraits
{
    MsgQueue queue;
    MsgNeeds needs;
    OnCrash crash;
    OnRebuild rebuild;
};

/** @return the traits row of @p t. */
const MsgTraits &msgTraits(MsgType t);

/** A coherence protocol message. */
struct Msg
{
    MsgType type = MsgType::ReadReq;
    Addr lineAddr = 0;
    NodeId src = 0;       ///< sending node
    NodeId dst = 0;       ///< destination node
    NodeId requester = 0; ///< original requesting node (for forwards)
    std::uint64_t version = 0; ///< checker payload riding with data
    /**
     * For owner responses (OwnerDataToHome, SharingWB): true when the
     * owner keeps a Shared copy after supplying, so the home should
     * record it as a sharer.
     */
    bool ownerRetains = false;
    /**
     * Per-(src,dst) send sequence number, stamped by the router when
     * the invariant checker is enabled (0 otherwise). Lets the
     * checker verify the per-pair FIFO delivery order the protocol
     * relies on and detect duplicated deliveries.
     */
    std::uint64_t seq = 0;
    /**
     * Set on requests re-issued by crash-replay or the miss-timeout
     * ladder. A home that already granted ownership to the sender
     * re-grants from memory instead of bouncing with HomeNack — the
     * original grant died with the crashed controller.
     */
    bool recoveryResend = false;
};

/** Network sizes in bytes. */
constexpr unsigned msgHeaderBytes = 16;

/** @return the wire size of a message given the line size. */
inline unsigned
msgBytes(MsgType t, unsigned line_bytes)
{
    return msgCarriesData(t) ? msgHeaderBytes + line_bytes
                             : msgHeaderBytes;
}

} // namespace ccnuma

#endif // CCNUMA_PROTOCOL_MESSAGES_HH
