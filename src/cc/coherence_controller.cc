#include "cc/coherence_controller.hh"

#include "obs/tracer.hh"

#include <algorithm>
#include <bit>
#include <type_traits>
#include <unordered_set>

namespace ccnuma
{

CoherenceController::CoherenceController(const std::string &name,
                                         EventQueue &eq, NodeId node,
                                         const CcParams &params,
                                         FaultTolerance level,
                                         Bus &bus, Network &net,
                                         AddressMap &map,
                                         DirectoryStore &dir)
    : name_(name), eq_(eq), node_(node), params_(params),
      recovery_(level >= FaultTolerance::Recovery), bus_(bus),
      net_(net), map_(map), dir_(dir), retries_(level),
      model_(params.engineType), statGroup_(name)
{
    if (params.numEngines != 1 && params.numEngines != 2 &&
        params.numEngines != 4) {
        fatal("cc %s: numEngines must be 1, 2 or 4", name.c_str());
    }
    engines_.resize(params.numEngines);
    for (unsigned i = 0; i < params.numEngines; ++i)
        engines_[i].idx = i;
    busAgentId_ = bus_.addAgent(this);
    bus_.setCoherenceHook(this);

    statGroup_.add(&statBusRequests);
    statGroup_.add(&statNetRequests);
    statGroup_.add(&statNetResponses);
    statGroup_.add(&statMerged);
    statGroup_.add(&statParked);
    statGroup_.add(&statNacks);
    statGroup_.add(&statLivelockPromotions);
    statGroup_.add(&statDirectWBs);
    statGroup_.add(&statWbStalls);
    statGroup_.add(&statNackRetries);
    statGroup_.add(&statRetryBackoffTicks);
    statGroup_.add(&statCrashes);
    statGroup_.add(&statCrashDropped);
    statGroup_.add(&statRecoveryNacks);
    statGroup_.add(&statDirRebuilds);
    statGroup_.add(&statRebuildLines);
    statGroup_.add(&statMissTimeouts);
    statGroup_.add(&statTimeoutResends);
    statGroup_.add(&statRecoveryProbes);
    statGroup_.add(&statDegradedEntries);
    statGroup_.add(&statStrayDrops);
    statGroup_.add(&statPoisonNacks);
}

// ---------------------------------------------------------------------
// Line poisoning (PR 7)
// ---------------------------------------------------------------------

void
CoherenceController::markLineDead(Addr line_addr)
{
    deadLines_.insert(line_addr);
    // Reset the directory view: no holder anywhere. The checker's
    // coverage invariant exempts dead lines explicitly; the Home
    // state keeps the bus-side directory logic self-consistent
    // (requests are intercepted before it is consulted anyway).
    DirEntry &e = dir_.entry(line_addr);
    e.state = DirState::Home;
    e.sharers = 0;
    ccnuma_trace(line_addr, "%8llu %s LINE DEAD %#llx",
                 (unsigned long long)eq_.curTick(), name_.c_str(),
                 (unsigned long long)line_addr);
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::LineDead, node_,
                            line_addr, eq_.curTick());
    }
}

// ---------------------------------------------------------------------
// Bus-side logic (the bus-side directory / dispatch front end)
// ---------------------------------------------------------------------

CoherenceController::DispatchItem
CoherenceController::busItem(std::uint64_t txn_id, Addr line, BusCmd cmd)
{
    DispatchItem item;
    item.isBus = true;
    item.busTxnId = txn_id;
    item.lineAddr = line;
    item.busCmd = cmd;
    return item;
}

void
CoherenceController::writeHomeMemory(Addr line_addr,
                                     std::uint64_t version, Tick t)
{
    if (!memory_)
        return;
    memory_->scheduleWrite(line_addr, t);
    memory_->setVersion(line_addr, version);
}

void
CoherenceController::sendHome(MsgType type, Addr line,
                              std::uint64_t version, bool retains,
                              Tick t, bool direct)
{
    const NodeId home = map_.homeOf(line);
    if (direct) {
        ++statDirectWBs;
        sendMsg(type, line, home, node_, version, retains, t);
        return;
    }
    // Ablated direct path: an engine spends a send handler on it.
    DispatchItem item = busItem(0, line, BusCmd::WriteBack);
    item.msg.type = type;
    item.msg.lineAddr = line;
    item.msg.dst = home;
    item.msg.version = version;
    item.msg.ownerRetains = retains;
    eq_.scheduleFunction([this, item] { enqueue(QBusRequest, item); },
                         t);
}

SupplyDecision
CoherenceController::busObserve(BusTxn &txn, SnoopResult combined)
{
    const Addr line = txn.lineAddr;
    const bool local = map_.homeOf(line) == node_;
    if (txn.fromCC)
        return observeOwnOp(txn, combined, local);

    // Processor-issued transaction.
    switch (txn.cmd) {
      case BusCmd::Inval:
        return SupplyDecision::NoData;
      case BusCmd::WriteBack:
        if (local)
            return SupplyDecision::Memory;
        // Reserve the writeback buffer entry immediately so that
        // requests racing with the writeback stall behind it.
        wbBuffer_[line] = WbEntry{txn.dataVersion};
        return SupplyDecision::NoData; // see busCaptureWriteBack
      case BusCmd::Read:
      case BusCmd::ReadExcl:
        break;
    }
    const bool read = txn.cmd == BusCmd::Read;
    if (combined == SnoopResult::DirtySupply) {
        // The snoop already demoted (Read) or invalidated (ReadExcl)
        // the owning cache, so the data must move now, ahead of any
        // parking and even with the controller card down: the
        // bus-side data path survives a crash. A local Modified copy
        // implies the directory records no remote owner, so the
        // supply is safe while another home transaction is active;
        // a demoted local line reflects into memory, or later
        // readers would see the stale memory image. Remote
        // ownership migrates within the node without the home.
        if (local) {
            return read ? SupplyDecision::CacheReflect
                        : SupplyDecision::Cache;
        }
        if (read) {
            // The downgrading owner's data travels home as a sharing
            // writeback, sent once the cache-to-cache transfer is on
            // the bus, so the directory stays truthful. A card that
            // is down has no engine for the ablated slow path.
            const BusParams &bp = bus_.params();
            const Tick data_time =
                eq_.curTick() + bp.c2cDataLatency +
                static_cast<Tick>(bus_.lineBytes() / bp.busWidthBytes) *
                    bp.beatTicks;
            wbBuffer_[line] = WbEntry{txn.dataVersion};
            sendHome(MsgType::SharingWB, line, txn.dataVersion,
                     /*retains=*/true, data_time,
                     params_.directDataPath ||
                         state_ != CcState::Normal);
        }
        return SupplyDecision::Cache;
    }
    // Only a plain Read of a remote line completes off a Shared copy
    // in the node: an upgrade needs the home to invalidate remote
    // sharers and record ownership.
    if (combined == SnoopResult::SharedSupply && !local && read)
        return SupplyDecision::Cache;
    if (state_ != CcState::Normal)
        return parkForRestart(txn);
    if (local)
        return observeHomeRequest(txn);

    // Remote-line miss: defer and hand to a protocol engine, merging
    // with an existing pending transaction for the same line when the
    // request kinds are compatible.
    DispatchItem item = busItem(txn.id, line, txn.cmd);
    if (auto it = reqPending_.find(line); it != reqPending_.end())
        joinPending(it->second, item);
    else
        enqueue(QBusRequest, item);
    return SupplyDecision::Deferred;
}

SupplyDecision
CoherenceController::observeOwnOp(BusTxn &txn, SnoopResult combined,
                                  bool local)
{
    switch (txn.cmd) {
      case BusCmd::Read:
      case BusCmd::ReadExcl:
        if (combined == SnoopResult::DirtySupply ||
            combined == SnoopResult::SharedSupply) {
            // A local line read out of a Modified local cache
            // demotes the copy to Shared; memory must absorb the
            // dirty data in the same transfer.
            if (txn.cmd == BusCmd::Read && local &&
                combined == SnoopResult::DirtySupply) {
                return SupplyDecision::CacheReflect;
            }
            return SupplyDecision::Cache;
        }
        if (auto it = wbBuffer_.find(txn.lineAddr);
            it != wbBuffer_.end()) {
            txn.dataVersion = it->second.version;
            return SupplyDecision::Cache;
        }
        // No copy in the node: memory supplies a local line; a
        // remote one means we are a stale owner (nack).
        return local ? SupplyDecision::Memory : SupplyDecision::NoData;
      case BusCmd::Inval:
        return SupplyDecision::NoData;
      case BusCmd::WriteBack:
        break;
    }
    panic("cc %s: controller-issued writeback", name_.c_str());
}

SupplyDecision
CoherenceController::parkForRestart(const BusTxn &txn)
{
    // The controller card is dark or rebuilding its directory.
    // Transactions the snooping bus completes within the node
    // (cache-to-cache supplies, writebacks into local memory) have
    // already proceeded; anything that needs the controller's
    // dispatch logic or a trustworthy directory parks until the
    // restart replays it.
    DispatchItem item = busItem(txn.id, txn.lineAddr, txn.cmd);
    item.crashResend = true;
    crashReplay_.push_back(item);
    ++statParked;
    return SupplyDecision::Deferred;
}

SupplyDecision
CoherenceController::observeHomeRequest(BusTxn &txn)
{
    const Addr line = txn.lineAddr;
    const bool busy = homeBusy_.count(line) != 0 ||
                      deferredLocal_.count(line) != 0 ||
                      (homeWaiting_.count(line) &&
                       !homeWaiting_.at(line).empty());
    if (busy) {
        // Serialize behind the in-progress home transaction.
        homeWaiting_[line].push_back(busItem(txn.id, line, txn.cmd));
        ++statParked;
        return SupplyDecision::Deferred;
    }
    // The bus-side directory answers at bus rate whether a remote
    // node holds a copy the engine must recall or invalidate. A
    // poisoned line must never fill from the stale memory image
    // either; the engine bounces it instead.
    const BusSideDirState bs = dir_.busSideState(line);
    const bool remote = txn.cmd == BusCmd::Read
                            ? bs == BusSideDirState::DirtyRemote
                            : bs != BusSideDirState::NoRemote;
    if (remote || isLineDead(line)) {
        enqueue(QBusRequest, busItem(txn.id, line, txn.cmd));
        return SupplyDecision::Deferred;
    }
    // An Exclusive fill is only safe when no remote node holds a
    // copy.
    if (txn.cmd == BusCmd::Read)
        txn.exclusiveOk = bs == BusSideDirState::NoRemote;
    return SupplyDecision::Memory;
}

void
CoherenceController::joinPending(ReqPending &rp,
                                 const DispatchItem &item)
{
    // A read merges into a pending read; anything else waits for the
    // pending transaction to complete.
    if (!rp.excl && item.busCmd == BusCmd::Read) {
        rp.busTxns.push_back(item.busTxnId);
        ++statMerged;
    } else {
        rp.conflicting.push_back(item);
    }
}

void
CoherenceController::busCaptureWriteBack(BusTxn &txn, Tick data_ready)
{
    const Addr line = txn.lineAddr;
    ccnuma_assert(map_.homeOf(line) != node_);
    ccnuma_assert(wbBuffer_.count(line));
    sendHome(MsgType::WriteBack, line, txn.dataVersion,
             /*retains=*/false, data_ready, params_.directDataPath);
}

SnoopResult
CoherenceController::busSnoop(BusTxn &)
{
    // The controller holds no cache lines of its own; its writeback
    // buffer is consulted in busObserve for its own fetches only.
    return SnoopResult::None;
}

void
CoherenceController::busDone(BusTxn &txn)
{
    auto it = fetches_.find(txn.id);
    // The handler that issued a lost fetch died in a crash; its
    // originating request was collected for replay and will fetch
    // again from scratch.
    if (it == fetches_.end() && strayDrop("bus fetch"))
        return;
    ccnuma_assert(it != fetches_.end());
    ExecPtr ex = std::move(it->second);
    fetches_.erase(it);
    ex->fetchFailed = txn.supply == SupplyDecision::NoData;
    ex->fetchShared = txn.sharedSeen;
    ex->fetchDirty = txn.dirtySupplied;
    if (!ex->fetchFailed && txn.cmd != BusCmd::Inval)
        ex->version = txn.dataVersion;
    respondPhase(std::move(ex), eq_.curTick());
}

// ---------------------------------------------------------------------
// Network interface
// ---------------------------------------------------------------------

void
CoherenceController::sendMsg(MsgType type, Addr line_addr, NodeId dst,
                             NodeId requester, std::uint64_t version,
                             bool retains, Tick t,
                             bool recovery_resend)
{
    Msg m;
    m.type = type;
    m.lineAddr = line_addr;
    m.src = node_;
    m.dst = dst;
    m.requester = requester;
    m.version = version;
    m.ownerRetains = retains;
    m.recoveryResend = recovery_resend;
    ccnuma_trace(line_addr,
                 "%8llu %s send %s -> node%u req=%u ver=%llu ret=%d",
                 (unsigned long long)t, name_.c_str(),
                 msgTypeName(type), dst, requester,
                 (unsigned long long)version, (int)retains);
    unsigned bytes = msgBytes(type, bus_.lineBytes());
    Tick depart = t + params_.niDelay;
    eq_.scheduleFunction(
        [this, m, bytes]() mutable {
            ccnuma_assert(router_ != nullptr);
            // Stamp at the true network-entry instant so the
            // checker's sequence numbers reflect wire order.
            router_->onNetSend(m);
            if (xport_ != nullptr) {
                // Reliable mode: the transport owns delivery (it
                // retransmits lost frames, discards duplicates, and
                // re-establishes per-pair order before handing the
                // message back to the router).
                xport_->send(m, bytes);
                return;
            }
            Msg delivered = m;
            net_.send(node_, m.dst, bytes,
                      [this, delivered] {
                          router_->deliverMsg(delivered);
                      });
        },
        depart);
}

Tick
CoherenceController::retryDelay(Addr line, const char *what)
{
    RetryTracker::Attempt a = retries_.next(line);
    if (a.exhausted) {
        // Escalation path: the transient condition never cleared.
        // A clean diagnostic beats livelocking the machine.
        fatal("cc %s: %s for line %#llx abandoned after %u retries "
              "(policy: base %llu ticks, cap %llu ticks); the line "
              "never left its transient state", name_.c_str(), what,
              (unsigned long long)line, a.count - 1,
              (unsigned long long)RetryTracker::backoffBase,
              (unsigned long long)RetryTracker::backoffMax);
    }
    ++statNackRetries;
    statRetryBackoffTicks += static_cast<double>(a.delay);
    return a.delay;
}

void
CoherenceController::netReceive(const Msg &msg)
{
    if (state_ == CcState::Crashed || deadForever_) {
        // Dark. The reliable transport's receive fence normally
        // drops frames before they reach us (unacknowledged, so the
        // sender re-delivers after the restart); anything already in
        // flight past the fence is dropped here the same way.
        ++statCrashDropped;
        return;
    }
    if (msgTraits(msg.type).queue != MsgQueue::Interface) {
        DispatchItem item;
        item.msg = msg;
        item.lineAddr = msg.lineAddr;
        enqueue(queueOf(item), item);
        return;
    }

    // Home-liveness probes are answered at the network interface,
    // below the dispatch queues: a probe must tell the requester
    // whether the card is alive even when its engines are saturated
    // or busy rebuilding the directory.
    if (msg.type == MsgType::RecoveryProbe) {
        sendMsg(MsgType::RecoveryProbeAck, msg.lineAddr, msg.src,
                msg.requester, 0, false, eq_.curTick());
    } else if (msg.type == MsgType::RecoveryProbeAck) {
        // The home is alive, just slow: give it a fresh ladder.
        missLadders_.erase(msg.lineAddr);
    } else {
        // Writeback acknowledgements retire writeback-buffer entries;
        // that is network-interface bookkeeping, not protocol handler
        // work — no engine dispatch, no occupancy.
        ccnuma_assert(msg.type == MsgType::WriteBackAck);
        wbBuffer_.erase(msg.lineAddr);
        releaseWbWaiting(msg.lineAddr);
    }
}

void
CoherenceController::releaseWbWaiting(Addr line_addr)
{
    auto it = wbWaiting_.find(line_addr);
    if (it == wbWaiting_.end())
        return;
    ItemList waiting = std::move(it->second);
    wbWaiting_.erase(it);
    requeueFront(waiting);
}

// ---------------------------------------------------------------------
// Dispatch machinery
// ---------------------------------------------------------------------

unsigned
CoherenceController::queueOf(const DispatchItem &item)
{
    if (item.isBus)
        return QBusRequest;
    return msgTraits(item.msg.type).queue == MsgQueue::Request
               ? QNetRequest
               : QNetResponse;
}

void
CoherenceController::requeueFront(const ItemList &items)
{
    // push_front in reverse keeps the items in their original order.
    for (auto it = items.rbegin(); it != items.rend(); ++it)
        enqueue(queueOf(*it), *it, /*to_front=*/true);
}

unsigned
CoherenceController::engineFor(Addr line_addr) const
{
    if (engines_.size() == 1)
        return 0;
    if (params_.dynamicSplit) {
        unsigned best = 0;
        std::size_t best_load = ~std::size_t(0);
        for (unsigned e = 0; e < engines_.size(); ++e) {
            std::size_t load = engines_[e].busy ? 1 : 0;
            for (unsigned q = 0; q < NumQueues; ++q)
                load += engines_[e].queues[q].size();
            if (load < best_load) {
                best_load = load;
                best = e;
            }
        }
        return best;
    }
    // The S3.mp-style split: local addresses to the LPE(s), remote
    // addresses to the RPE(s). With more than two engines (the
    // paper's "more protocol engines for different regions of
    // memory"), each half is further interleaved by line region.
    const unsigned half =
        static_cast<unsigned>(engines_.size()) / 2;
    const unsigned region = static_cast<unsigned>(
        (line_addr / bus_.lineBytes()) % half);
    return map_.homeOf(line_addr) == node_ ? region : half + region;
}

void
CoherenceController::enqueue(unsigned queue, DispatchItem item,
                             bool to_front)
{
    if (state_ == CcState::Crashed || deadForever_) {
        // A pre-crash continuation (direct-path fallback, replay
        // drain) landed after the card went dark: park it with the
        // rest of the outage's work.
        crashReplay_.push_back(item);
        return;
    }
    item.enqueueTick = eq_.curTick();
    item.srcQueue = queue;
    unsigned e = engineFor(item.lineAddr);
    if (!item.counted) {
        item.counted = true;
        switch (queue) {
          case QBusRequest: ++statBusRequests; break;
          case QNetRequest: ++statNetRequests; break;
          case QNetResponse: ++statNetResponses; break;
        }
        ++engines_[e].arrivals;
    }
    // Track deferred local-line bus requests so that the bus-side
    // logic serializes newcomers behind them (see busObserve).
    if (item.isBus && item.busCmd != BusCmd::WriteBack &&
        map_.homeOf(item.lineAddr) == node_) {
        ++deferredLocal_[item.lineAddr];
    }
    if (to_front)
        engines_[e].queues[queue].push_front(item);
    else
        engines_[e].queues[queue].push_back(item);
    if (tracer_) {
        tracer_->queueDepth(node_, e,
                            engines_[e].queues[0].size() +
                                engines_[e].queues[1].size() +
                                engines_[e].queues[2].size());
    }
    if (!engines_[e].busy) {
        eq_.scheduleFunctionIn([this, e] { tryDispatch(e); }, 0);
    }
}

bool
CoherenceController::pickItem(Engine &e, DispatchItem &out)
{
    bool bus_waiting = !e.queues[QBusRequest].empty();
    if (params_.priorityArbitration) {
        if (bus_waiting && e.netBypass >= params_.livelockThreshold) {
            out = e.queues[QBusRequest].front();
            e.queues[QBusRequest].pop_front();
            e.netBypass = 0;
            ++statLivelockPromotions;
            return true;
        }
        for (unsigned q = 0; q < NumQueues; ++q) {
            if (e.queues[q].empty())
                continue;
            out = e.queues[q].front();
            e.queues[q].pop_front();
            if (q == QNetRequest && bus_waiting)
                ++e.netBypass;
            if (q == QBusRequest)
                e.netBypass = 0;
            return true;
        }
        return false;
    }
    // Plain FIFO across all three queues (ablation).
    int best = -1;
    Tick best_tick = maxTick;
    for (unsigned q = 0; q < NumQueues; ++q) {
        if (!e.queues[q].empty() &&
            e.queues[q].front().enqueueTick < best_tick) {
            best = static_cast<int>(q);
            best_tick = e.queues[q].front().enqueueTick;
        }
    }
    if (best < 0)
        return false;
    out = e.queues[best].front();
    e.queues[best].pop_front();
    return true;
}

void
CoherenceController::tryDispatch(unsigned engine_idx)
{
    Engine &e = engines_[engine_idx];
    if (e.busy || state_ == CcState::Crashed || deadForever_)
        return;
    if (stallHook_ &&
        (!e.queues[0].empty() || !e.queues[1].empty() ||
         !e.queues[2].empty())) {
        Tick stall = stallHook_();
        if (stall > 0) {
            // Injected engine stall: hold the engine busy without
            // dispatching, then re-attempt. Under a bounded retry
            // policy an endless stall streak escalates instead of
            // silently starving the queues.
            ++e.stallStreak;
            if (retries_.bounded() &&
                e.stallStreak > RetryTracker::maxRetries) {
                fatal("cc %s: engine %u starved by %u consecutive "
                      "injected stalls (retry budget %u); queues "
                      "%zu/%zu/%zu", name_.c_str(), engine_idx,
                      e.stallStreak, RetryTracker::maxRetries,
                      e.queues[0].size(), e.queues[1].size(),
                      e.queues[2].size());
            }
            e.busy = true;
            e.busyStart = eq_.curTick();
            eq_.scheduleFunctionIn(
                [this, engine_idx, ep = epoch_] {
                    if (ep != epoch_)
                        return; // engine died in a crash
                    Engine &en = engines_[engine_idx];
                    ccnuma_assert(en.busy);
                    en.busy = false;
                    en.occupancyTicks +=
                        eq_.curTick() - en.busyStart;
                    if (tracer_) {
                        tracer_->engineStall(
                            node_, engine_idx, en.busyStart,
                            eq_.curTick() - en.busyStart);
                    }
                    tryDispatch(engine_idx);
                },
                stall);
            return;
        }
    }
    e.stallStreak = 0;
    DispatchItem item;
    if (!pickItem(e, item))
        return;
    e.busy = true;
    e.busyStart = eq_.curTick();
    e.curHandler = 0xff;
    e.curExtraTargets = 0;
    e.queueDelaySum +=
        static_cast<double>(eq_.curTick() - item.enqueueTick);
    ++e.queueDelayCount;
    if (tracer_) {
        tracer_->queueWait(node_, engine_idx, item.srcQueue,
                           item.enqueueTick, eq_.curTick());
    }
    startItem(engine_idx, item);
}

void
CoherenceController::startItem(unsigned engine_idx, DispatchItem item)
{
    Engine &e = engines_[engine_idx];
    e.curLine = item.lineAddr;
    e.curLineValid = true;
    e.curItem = item;
    e.curItemValid = true;
    if (item.isBus && item.busCmd != BusCmd::WriteBack &&
        map_.homeOf(item.lineAddr) == node_) {
        auto it = deferredLocal_.find(item.lineAddr);
        ccnuma_assert(it != deferredLocal_.end());
        if (--it->second == 0)
            deferredLocal_.erase(it);
    }
    if (!item.isBus) {
        const Msg &msg = item.msg;
        ccnuma_trace(msg.lineAddr,
                     "%8llu %s dispatch %s from node%u req=%u ver=%llu",
                     (unsigned long long)eq_.curTick(), name_.c_str(),
                     msgTypeName(msg.type), msg.src, msg.requester,
                     (unsigned long long)msg.version);
    }
    if (admit(engine_idx, item))
        serve(engine_idx, item);
}

void
CoherenceController::serve(unsigned e, const DispatchItem &item)
{
    if (item.isBus) {
        if (item.busCmd == BusCmd::WriteBack)
            busSendWriteBack(e, item);
        else if (map_.homeOf(item.lineAddr) == node_)
            busHomeRequest(e, item);
        else
            busRemoteRequest(e, item);
        return;
    }
    const Msg &msg = item.msg;
    switch (msg.type) {
      case MsgType::ReadReq:
      case MsgType::ReadExclReq:
        homeRequest(e, item);
        return;
      case MsgType::FwdRead:
      case MsgType::FwdReadExcl:
        ownerForward(e, msg);
        return;
      case MsgType::InvalReq:
        sharerInval(e, msg);
        return;
      case MsgType::InvalAck:
        invalAck(e, msg);
        return;
      case MsgType::DataReply:
      case MsgType::DataExclReply:
        requesterData(e, msg);
        return;
      case MsgType::OwnerDataToHome:
      case MsgType::OwnerDataExclToHome:
        ownerDataToHome(e, msg);
        return;
      case MsgType::SharingWB:
        sharingWriteBack(e, msg);
        return;
      case MsgType::OwnershipAck:
        ownershipAck(e, msg);
        return;
      case MsgType::WriteBack:
        absorbWriteBack(e, HandlerId::WriteBackAtHome, msg,
                        dir_.entry(msg.lineAddr));
        return;
      case MsgType::HomeNack:
      case MsgType::RecoveryNack:
        requestNacked(e, msg);
        return;
      case MsgType::PoisonNack:
        poisonNacked(e, msg);
        return;
      case MsgType::OwnerNack:
        ownerNacked(e, msg);
        return;
      case MsgType::DirProbe:
        dirProbe(e, msg);
        return;
      case MsgType::DirProbeResp:
      case MsgType::DirProbeDone:
        dirProbeResponse(e, msg);
        return;
      case MsgType::WriteBackAck:
      case MsgType::RecoveryProbe:
      case MsgType::RecoveryProbeAck:
        break; // answered at the network interface (netReceive)
    }
    panic("cc %s: %s reached the dispatch path", name_.c_str(),
          msgTypeName(msg.type));
}

void
CoherenceController::parkAtHome(unsigned engine_idx,
                                const DispatchItem &item)
{
    homeWaiting_[item.lineAddr].push_back(item);
    ++statParked;
    // The engine spent a dispatch-and-check on this; release it.
    finishHandler(engine_idx,
                  eq_.curTick() + params_.dispatchLatency +
                      model_.cost(SubOp::DispatchHandler) +
                      model_.cost(SubOp::ReadAssocRegs));
}

void
CoherenceController::closeHomeTxn(Addr line_addr, Tick t)
{
    homeBusy_.erase(line_addr);
    drainHomeWaiting(line_addr, t);
}

void
CoherenceController::drainHomeWaiting(Addr line_addr, Tick t)
{
    auto it = homeWaiting_.find(line_addr);
    if (it == homeWaiting_.end())
        return;
    ItemList waiting = std::move(it->second);
    homeWaiting_.erase(it);
    // Replay in arrival order. (No epoch guard: if a crash lands
    // first, enqueue parks the items with the rest of the outage's
    // replay work.)
    eq_.scheduleFunction(
        [this, waiting = std::move(waiting)] { requeueFront(waiting); },
        t);
}

// ---------------------------------------------------------------------
// Handler execution
// ---------------------------------------------------------------------

template <typename F>
void
CoherenceController::beginHandler(unsigned engine_idx, HandlerId h,
                                  Addr line, int extra_targets,
                                  CcBusOp bus_op, F &&action)
{
    engines_[engine_idx].curHandler = static_cast<std::uint8_t>(h);
    engines_[engine_idx].curExtraTargets = extra_targets;
    ExecPtr ex = pool::make<Exec>();
    ex->engine = engine_idx;
    ex->handler = h;
    ex->lineAddr = line;
    ex->extraTargets = extra_targets;
    ex->busOp = bus_op;
    if constexpr (!std::is_null_pointer_v<std::decay_t<F>>) {
        static_assert(sizeof(std::decay_t<F>) <=
                          decltype(Exec::action)::inlineBytes,
                      "handler action capture exceeds Exec's inline "
                      "storage");
        ex->action.emplace(std::forward<F>(action));
    }
    runHandler(std::move(ex));
}

void
CoherenceController::runHandler(ExecPtr ex)
{
    const HandlerSpec &spec = handlerSpec(ex->handler);
    const Addr line = ex->lineAddr;
    Tick now = eq_.curTick();
    Tick pre_done = now + params_.dispatchLatency +
                    spec.preCost(model_, ex->extraTargets);
    if (spec.readsDirectory)
        pre_done = dir_.scheduleRead(line, pre_done, nullptr);

    if (ex->busOp != CcBusOp::None) {
        BusCmd bc = BusCmd::Read;
        switch (ex->busOp) {
          case CcBusOp::FetchRead: bc = BusCmd::Read; break;
          case CcBusOp::FetchReadExcl: bc = BusCmd::ReadExcl; break;
          case CcBusOp::InvalOnly: bc = BusCmd::Inval; break;
          case CcBusOp::None: break;
        }
        eq_.scheduleFunction(
            [this, ex = std::move(ex), bc, line,
             ep = epoch_]() mutable {
                if (ep != epoch_) {
                    // The handler died in a crash before its bus
                    // operation issued; its request replays fresh.
                    return;
                }
                std::uint64_t id = bus_.request(bc, line, busAgentId_,
                                                0, /*from_cc=*/true);
                fetches_[id] = std::move(ex);
            },
            pre_done);
    } else {
        respondPhase(std::move(ex), pre_done);
    }
}

void
CoherenceController::respondPhase(ExecPtr ex, Tick t)
{
    eq_.scheduleFunction(
        [this, ex = std::move(ex), ep = epoch_] {
            if (ep != epoch_)
                return; // handler died in a crash
            Exec &e = *ex;
            Tick now = eq_.curTick();
            if (e.action)
                e.action(e, now);
            const HandlerSpec &spec = handlerSpec(e.handler);
            Tick post = spec.postCost(model_);
            if (spec.movesData) {
                // Remainder of the line transfer after the critical
                // beat keeps the engine occupied (but the response
                // is already on its way). A protocol processor
                // additionally polls off-chip registers to confirm
                // the transfer completed.
                const BusParams &bp = bus_.params();
                post += (bus_.lineBytes() / bp.busWidthBytes - 1) *
                        bp.beatTicks;
                if (params_.engineType == EngineType::PP)
                    post += params_.ppTransferPoll;
            }
            finishHandler(e.engine, now + post);
        },
        t);
}

void
CoherenceController::finishHandler(unsigned engine_idx, Tick free_at)
{
    eq_.scheduleFunction(
        [this, engine_idx, ep = epoch_] {
            if (ep != epoch_)
                return; // engine died in a crash
            Engine &e = engines_[engine_idx];
            ccnuma_assert(e.busy);
            e.busy = false;
            e.curLineValid = false;
            e.curItemValid = false;
            e.occupancyTicks += eq_.curTick() - e.busyStart;
            if (tracer_) {
                tracer_->engineSpan(node_, engine_idx, e.curHandler,
                                    e.curExtraTargets, e.busyStart,
                                    eq_.curTick());
                e.curHandler = 0xff;
                e.curExtraTargets = 0;
            }
            tryDispatch(engine_idx);
        },
        free_at);
}

// ---------------------------------------------------------------------
// The guard stage: is this item served now?
// ---------------------------------------------------------------------

bool
CoherenceController::admit(unsigned engine_idx, const DispatchItem &item)
{
    const Addr line = item.lineAddr;
    if (item.isBus) {
        // A local processor request for a home line waits out a busy
        // line first, then bounces off a poisoned one.
        if (item.busCmd == BusCmd::WriteBack ||
            map_.homeOf(line) != node_) {
            return true;
        }
        if (homeBusy_.count(line)) {
            parkAtHome(engine_idx, item);
            return false;
        }
        if (isLineDead(line)) {
            fenceDeadLine(engine_idx, item);
            return false;
        }
        return true;
    }

    const Msg &msg = item.msg;
    const MsgTraits &tr = msgTraits(msg.type);
    if (state_ == CcState::Recovering && tr.rebuild == OnRebuild::Park) {
        // The owner/sharer picture is still being rebuilt; hold the
        // writeback until the directory can judge whether it
        // applies. The sender's buffer entry stays reserved until we
        // ack, preserving request-follows-writeback ordering across
        // the outage.
        rebuildParkedWb_.push_back(msg);
        finishHandler(engine_idx,
                      eq_.curTick() + params_.dispatchLatency);
        return false;
    }
    if (tr.rebuild == OnRebuild::Nack) {
        // A fresh request for one of our lines. While the directory
        // is being rebuilt nothing it says can be trusted: bounce it
        // with a distinct nack so the requester's bounded-retry
        // policy re-presents it after the rebuild. A poisoned line's
        // only up-to-date copy is gone: fence the requester off it
        // with a terminal nack (no retry will ever help). A busy
        // line serializes the request behind its transaction.
        if (state_ == CcState::Recovering) {
            ++statRecoveryNacks;
            nackRequest(engine_idx, msg, MsgType::RecoveryNack);
        } else if (isLineDead(line)) {
            notePoison(line);
            nackRequest(engine_idx, msg, MsgType::PoisonNack);
        } else if (homeBusy_.count(line)) {
            parkAtHome(engine_idx, item);
        } else {
            return true;
        }
        return false;
    }
    const bool held = tr.needs == MsgNeeds::HomeTxn
                          ? homeBusy_.count(line) != 0
                      : tr.needs == MsgNeeds::ReqTxn
                          ? reqPending_.count(line) != 0
                          : true;
    if (held)
        return true;
    // A response for transaction state lost in a crash: the replayed
    // request will be answered afresh (Msg::recoveryResend).
    if (!strayDrop(msgTypeName(msg.type))) {
        panic("cc %s: %s for line %#llx without its transaction",
              name_.c_str(), msgTypeName(msg.type),
              (unsigned long long)line);
    }
    finishHandler(engine_idx, eq_.curTick());
    return false;
}

void
CoherenceController::notePoison(Addr line_addr)
{
    ++statPoisonNacks;
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::Poison, node_, line_addr,
                            eq_.curTick());
    }
}

void
CoherenceController::nackRequest(unsigned engine_idx, const Msg &msg,
                                 MsgType nack)
{
    const Addr line = msg.lineAddr;
    const NodeId req = msg.requester;
    beginHandler(engine_idx, HandlerId::OwnerNackAtHome, line, 0,
                 CcBusOp::None, [this, line, req, nack](Exec &, Tick t) {
                     sendMsg(nack, line, req, req, 0, false, t);
                 });
}

void
CoherenceController::fenceDeadLine(unsigned engine_idx,
                                   const DispatchItem &item)
{
    // The machine's poison fence kills the blocked processors and
    // aborts their misses, then the deferred bus transaction drains
    // without installing anything (the cache unit drops it via its
    // poison-abort list).
    const Addr line = item.lineAddr;
    const std::uint64_t bus_txn = item.busTxnId;
    notePoison(line);
    beginHandler(engine_idx, HandlerId::OwnerNackAtHome, line, 0,
                 CcBusOp::None, [this, line, bus_txn](Exec &, Tick t) {
                     if (poisonFence_)
                         poisonFence_(line);
                     bus_.deferredRespond(bus_txn, 0, t);
                     drainHomeWaiting(line, t);
                 });
}

// ---------------------------------------------------------------------
// Protocol handlers: shared plumbing
// ---------------------------------------------------------------------

namespace
{

std::uint64_t
sharerBit(NodeId n)
{
    return 1ull << n;
}

/** The Table 4 handler an owner runs to supply a forwarded line. */
HandlerId
ownerHandler(bool excl, bool to_home)
{
    if (excl) {
        return to_home ? HandlerId::ReadExclFromOwnerForHome
                       : HandlerId::ReadExclFromOwnerForRemote;
    }
    return to_home ? HandlerId::ReadFromOwnerForHome
                   : HandlerId::ReadFromOwnerForRemote;
}

} // namespace

void
CoherenceController::openHomeTxn(const DispatchItem &item,
                                 unsigned acks)
{
    HomeTxn txn;
    txn.localRequest = item.isBus;
    txn.requester = item.isBus ? node_ : item.msg.requester;
    txn.excl = item.isBus ? item.busCmd == BusCmd::ReadExcl
                          : item.msg.type == MsgType::ReadExclReq;
    txn.busTxnId = item.busTxnId;
    txn.acksExpected = acks;
    txn.original = item;
    homeBusy_[item.lineAddr] = txn;
}

void
CoherenceController::dirHome(Addr line_addr, Tick t)
{
    DirEntry &e = dir_.entry(line_addr);
    e.state = DirState::Home;
    e.sharers = 0;
    dir_.scheduleWrite(line_addr, t);
}

void
CoherenceController::dirOwner(Addr line_addr, NodeId owner, Tick t)
{
    DirEntry &e = dir_.entry(line_addr);
    e.state = DirState::DirtyRemote;
    e.owner = owner;
    e.sharers = 0;
    dir_.scheduleWrite(line_addr, t);
}

void
CoherenceController::dirShared(Addr line_addr, std::uint64_t sharers,
                               Tick t)
{
    DirEntry &e = dir_.entry(line_addr);
    e.state = DirState::SharedRemote;
    e.sharers = sharers;
    dir_.scheduleWrite(line_addr, t);
}

std::uint64_t
CoherenceController::sharersBut(const DirEntry &d, NodeId skip) const
{
    const unsigned n = map_.numNodes();
    const std::uint64_t nodes = n >= 64 ? ~0ull : (1ull << n) - 1;
    return d.sharers & nodes & ~sharerBit(skip);
}

void
CoherenceController::collectAcks(unsigned engine_idx,
                                 const DispatchItem &item, HandlerId h,
                                 std::uint64_t targets)
{
    ccnuma_assert(targets != 0);
    const Addr line = item.lineAddr;
    const int extra = std::popcount(targets);
    openHomeTxn(item, static_cast<unsigned>(extra));
    // Fetch-exclusive: the data rides the last ack back to the
    // requester, and local copies acquired since the original bus
    // snoop must die with the rest.
    beginHandler(engine_idx, h, line, extra, CcBusOp::FetchReadExcl,
                 [this, line, targets](Exec &ex, Tick t) {
                     HomeTxn &txn = homeBusy_.at(line);
                     txn.dataVersion = ex.version;
                     txn.haveData = true;
                     // Ascending node order, lowest bit first.
                     for (std::uint64_t m = targets; m != 0; m &= m - 1) {
                         sendMsg(MsgType::InvalReq, line,
                                 static_cast<NodeId>(std::countr_zero(m)),
                                 node_, 0, false, t);
                     }
                 });
}

CoherenceController::ItemList
CoherenceController::pendingItems(Addr line_addr, const ReqPending &rp)
{
    ItemList items;
    items.reserve(rp.busTxns.size() + rp.conflicting.size());
    for (std::uint64_t txn : rp.busTxns) {
        items.push_back(busItem(
            txn, line_addr, rp.excl ? BusCmd::ReadExcl : BusCmd::Read));
    }
    items.insert(items.end(), rp.conflicting.begin(),
                 rp.conflicting.end());
    return items;
}

// ---------------------------------------------------------------------
// Protocol handlers: local bus requests
// ---------------------------------------------------------------------

void
CoherenceController::busSendWriteBack(unsigned engine_idx,
                                      const DispatchItem &item)
{
    // Slow-path (ablation) writeback / sharing-writeback send: the
    // engine spends a send handler where the direct data path would
    // have forwarded the data for free.
    const Msg m = item.msg;
    beginHandler(engine_idx, HandlerId::BusReadRemote, item.lineAddr, 0,
                 CcBusOp::None, [this, m](Exec &, Tick t) {
                     sendMsg(m.type, m.lineAddr, m.dst, node_,
                             m.version, m.ownerRetains, t);
                 });
}

void
CoherenceController::busHomeRequest(unsigned engine_idx,
                                    const DispatchItem &item)
{
    const Addr line = item.lineAddr;
    const bool excl = item.busCmd == BusCmd::ReadExcl;
    const DirEntry &d = dir_.entry(line);
    if (d.state == DirState::DirtyRemote) {
        const NodeId owner = d.owner;
        openHomeTxn(item);
        beginHandler(engine_idx, HandlerId::BusReadLocalDirtyRemote,
                     line, 0, CcBusOp::None,
                     [this, line, owner, excl](Exec &, Tick t) {
                         sendMsg(excl ? MsgType::FwdReadExcl
                                      : MsgType::FwdRead,
                                 line, owner, node_, 0, false, t);
                     });
        return;
    }
    if (d.state == DirState::SharedRemote && excl) {
        collectAcks(engine_idx, item,
                    HandlerId::BusReadExclLocalCachedRemote,
                    sharersBut(d, node_));
        return;
    }
    // No remote copy to recall, or a local read of a shared-remote
    // line (memory supplied it at the snoop; it reaches an engine
    // only as a replay after parking): supply it from memory now.
    // Hold a home transaction across the fetch: once this engine
    // dispatched, the deferredLocal_ guard is gone, and without
    // homeBusy_ a fresh local ReadExcl would sail past busObserve and
    // fill Modified straight from memory while the fetch below
    // carries the same line's data to the parked requester — two
    // Modified copies.
    const std::uint64_t bus_txn = item.busTxnId;
    openHomeTxn(item);
    beginHandler(engine_idx, ownerHandler(excl, /*to_home=*/true), line,
                 0, excl ? CcBusOp::FetchReadExcl : CcBusOp::FetchRead,
                 [this, line, bus_txn](Exec &ex, Tick t) {
                     ccnuma_assert(!ex.fetchFailed);
                     bus_.deferredRespond(bus_txn, ex.version, t);
                     closeHomeTxn(line, t);
                 });
}

void
CoherenceController::busRemoteRequest(unsigned engine_idx,
                                      const DispatchItem &item)
{
    const Addr line = item.lineAddr;
    const NodeId home = map_.homeOf(line);
    const bool excl = item.busCmd == BusCmd::ReadExcl;

    // A request for a line whose writeback we have not yet seen
    // acknowledged must wait: the home has to absorb the writeback
    // before it can serve us, and sending the request early would
    // present the home with a request from its recorded owner.
    if (wbBuffer_.count(line)) {
        wbWaiting_[line].push_back(item);
        ++statWbStalls;
        finishHandler(engine_idx,
                      eq_.curTick() + params_.dispatchLatency);
        return;
    }
    // Join a requester-side transaction already open for the line;
    // nothing further for the engine to do.
    if (auto it = reqPending_.find(line); it != reqPending_.end()) {
        joinPending(it->second, item);
        finishHandler(engine_idx,
                      eq_.curTick() + params_.dispatchLatency);
        return;
    }

    // A request deferred earlier may find the line present in the
    // node by now (a concurrent transaction filled it, or the node
    // still owns it): serve it within the node instead of bothering
    // the home. Ownership migrates inside the node without a home
    // transaction, exactly as it would have on the snooping bus.
    const bool mod_local =
        probe_ != nullptr && probe_->lineModifiedLocally(line);
    const bool cached_local =
        mod_local ||
        (probe_ != nullptr && probe_->lineCachedLocally(line));
    if ((excl && mod_local) || (!excl && cached_local)) {
        beginHandler(
            engine_idx, ownerHandler(excl, /*to_home=*/true), line, 0,
            excl ? CcBusOp::FetchReadExcl : CcBusOp::FetchRead,
            [this, retry = item](Exec &ex, Tick t) {
                const Addr line = retry.lineAddr;
                const bool excl = retry.busCmd == BusCmd::ReadExcl;
                if (ex.fetchFailed) {
                    // The copy evaporated between the probe and the
                    // fetch; try again from the top (the retry will
                    // stall on the writeback buffer or go remote).
                    eq_.scheduleFunction(
                        [this, retry] {
                            enqueue(QBusRequest, retry,
                                    /*to_front=*/true);
                        },
                        t);
                    return;
                }
                if (!excl && ex.fetchDirty) {
                    // The fetch demoted our Modified copy of a
                    // remote line; the dirty data travels home as a
                    // sharing writeback on the direct data path so
                    // the directory and memory stay truthful.
                    wbBuffer_[line] = WbEntry{ex.version};
                    sendHome(MsgType::SharingWB, line, ex.version,
                             /*retains=*/true, t, /*direct=*/true);
                }
                bus_.deferredRespond(retry.busTxnId, ex.version, t);
            });
        return;
    }

    // Open a requester-side transaction and ask the home.
    ReqPending &rp = reqPending_.try_emplace(line).first->second;
    rp.excl = excl;
    rp.busTxns.push_back(item.busTxnId);
    const bool resend = item.crashResend;
    beginHandler(engine_idx,
                 excl ? HandlerId::BusReadExclRemote
                      : HandlerId::BusReadRemote,
                 line, 0, CcBusOp::None,
                 [this, line, home, excl, resend](Exec &, Tick t) {
                     sendMsg(excl ? MsgType::ReadExclReq
                                  : MsgType::ReadReq,
                             line, home, node_, 0, false, t,
                             /*recovery_resend=*/resend);
                 });
}

// ---------------------------------------------------------------------
// Protocol handlers: network messages
// ---------------------------------------------------------------------

void
CoherenceController::homeRequest(unsigned engine_idx,
                                 const DispatchItem &item)
{
    const Msg &msg = item.msg;
    const Addr line = msg.lineAddr;
    const bool excl = msg.type == MsgType::ReadExclReq;
    const NodeId req = msg.requester;
    const DirEntry &d = dir_.entry(line);

    if (d.state == DirState::DirtyRemote && d.owner == req) {
        if (msg.recoveryResend) {
            // The recorded owner lost its grant (a crash killed its
            // in-flight fill, or the reply died with our own card)
            // and is asking again: re-grant from memory, which still
            // holds the last version the owner ever confirmed.
            grantFromMemory(engine_idx, item,
                            excl ? HandlerId::RemoteReadExclToHomeUncached
                                 : HandlerId::RemoteReadToHomeClean,
                            /*join=*/false);
            return;
        }
        // The request raced ahead of the fill that made the
        // requester the owner. Bounce it back; the requester serves
        // it within its node.
        beginHandler(engine_idx, HandlerId::OwnerNackAtHome, line, 0,
                     CcBusOp::None, [this, line, req](Exec &, Tick t) {
                         sendMsg(MsgType::HomeNack, line, req, req, 0,
                                 false, t);
                         drainHomeWaiting(line, t);
                     });
        return;
    }
    if (d.state == DirState::DirtyRemote) {
        const NodeId owner = d.owner;
        openHomeTxn(item);
        beginHandler(engine_idx,
                     excl ? HandlerId::RemoteReadExclToHomeDirty
                          : HandlerId::RemoteReadToHomeDirtyRemote,
                     line, 0, CcBusOp::None,
                     [this, line, owner, req, excl](Exec &, Tick t) {
                         sendMsg(excl ? MsgType::FwdReadExcl
                                      : MsgType::FwdRead,
                                 line, owner, req, 0, false, t);
                     });
        return;
    }
    // Clean at home, possibly with remote sharers: a read just joins
    // them; a read-exclusive invalidates every other sharer first.
    if (!excl) {
        grantFromMemory(engine_idx, item,
                        HandlerId::RemoteReadToHomeClean);
        return;
    }
    const std::uint64_t targets = sharersBut(d, req);
    if (targets == 0) {
        grantFromMemory(engine_idx, item,
                        HandlerId::RemoteReadExclToHomeUncached);
        return;
    }
    collectAcks(engine_idx, item, HandlerId::RemoteReadExclToHomeShared,
                targets);
}

void
CoherenceController::grantFromMemory(unsigned engine_idx,
                                     const DispatchItem &item,
                                     HandlerId h, bool join)
{
    const Addr line = item.lineAddr;
    const NodeId req = item.msg.requester;
    const bool excl = item.msg.type == MsgType::ReadExclReq;
    openHomeTxn(item);
    beginHandler(
        engine_idx, h, line, 0,
        excl ? CcBusOp::FetchReadExcl : CcBusOp::FetchRead,
        [this, line, req, excl, join](Exec &ex, Tick t) {
            ccnuma_assert(!ex.fetchFailed);
            sendMsg(excl ? MsgType::DataExclReply : MsgType::DataReply,
                    line, req, req, ex.version, false, t);
            if (excl) {
                dirOwner(line, req, t);
            } else {
                const std::uint64_t others =
                    join ? dir_.entry(line).sharers : 0;
                dirShared(line, others | sharerBit(req), t);
            }
            closeHomeTxn(line, t);
        });
}

void
CoherenceController::ownerForward(unsigned engine_idx, const Msg &msg)
{
    // We are (or were) the owner of a remote line.
    const Addr line = msg.lineAddr;
    const bool excl = msg.type == MsgType::FwdReadExcl;
    const NodeId home = msg.src;
    const HandlerId h = ownerHandler(excl, msg.requester == home);
    if (probe_ == nullptr || !probe_->lineCachedLocally(line)) {
        auto wb = wbBuffer_.find(line);
        if (wb == wbBuffer_.end()) {
            // Neither cached nor buffered: stale forward; the home
            // retries after our writeback lands.
            beginHandler(engine_idx, ownerHandler(excl, true), line, 0,
                         CcBusOp::None,
                         [this, line, home](Exec &, Tick t) {
                             sendMsg(MsgType::OwnerNack, line, home,
                                     node_, 0, false, t);
                         });
            return;
        }
        // The line left our caches entirely; its data is still in
        // the controller's writeback buffer. Supply from there (no
        // local copy is retained).
        const std::uint64_t version = wb->second.version;
        beginHandler(engine_idx, h, line, 0, CcBusOp::None,
                     [this, msg, version](Exec &, Tick t) {
                         ownerSupply(msg, version, false, t);
                     });
        return;
    }
    beginHandler(engine_idx, h, line, 0,
                 excl ? CcBusOp::FetchReadExcl : CcBusOp::FetchRead,
                 [this, msg](Exec &ex, Tick t) {
                     if (ex.fetchFailed) {
                         // Lost a race with a local eviction; the home
                         // retries once the writeback lands.
                         sendMsg(MsgType::OwnerNack, msg.lineAddr,
                                 msg.src, node_, 0, false, t);
                         return;
                     }
                     ownerSupply(msg, ex.version, ex.fetchShared, t);
                 });
}

void
CoherenceController::ownerSupply(const Msg &fwd, std::uint64_t version,
                                 bool retains, Tick t)
{
    const Addr line = fwd.lineAddr;
    const NodeId home = fwd.src;
    const NodeId req = fwd.requester;
    const bool excl = fwd.type == MsgType::FwdReadExcl;
    if (req == home) {
        sendMsg(excl ? MsgType::OwnerDataExclToHome
                     : MsgType::OwnerDataToHome,
                line, home, req, version, retains && !excl, t);
        return;
    }
    // Data straight to the remote requester; the home learns of it
    // from an ownership ack (read-exclusive) or a sharing writeback
    // (read).
    sendMsg(excl ? MsgType::DataExclReply : MsgType::DataReply, line,
            req, req, version, false, t);
    if (excl)
        sendMsg(MsgType::OwnershipAck, line, home, req, 0, false, t);
    else
        sendMsg(MsgType::SharingWB, line, home, req, version, retains, t);
}

void
CoherenceController::sharerInval(unsigned engine_idx, const Msg &msg)
{
    const Addr line = msg.lineAddr;
    const NodeId home = msg.src;
    beginHandler(engine_idx, HandlerId::InvalRequestAtSharer, line, 0,
                 CcBusOp::InvalOnly, [this, line, home](Exec &, Tick t) {
                     sendMsg(MsgType::InvalAck, line, home, node_, 0,
                             false, t);
                 });
}

void
CoherenceController::invalAck(unsigned engine_idx, const Msg &msg)
{
    const Addr line = msg.lineAddr;
    HomeTxn &txn = homeBusy_.at(line);
    ccnuma_assert(txn.acksExpected > 0);
    if (--txn.acksExpected > 0) {
        beginHandler(engine_idx, HandlerId::InvalAckMoreExpected, line,
                     0, CcBusOp::None);
        return;
    }
    // The last ack: the data fetched at the home goes to the
    // requester, which becomes the only holder. The action keeps
    // only the transaction fields it reads.
    ccnuma_assert(txn.haveData);
    const bool local = txn.localRequest;
    const std::uint64_t bus_txn = txn.busTxnId;
    const NodeId req = txn.requester;
    const std::uint64_t version = txn.dataVersion;
    beginHandler(engine_idx,
                 local ? HandlerId::InvalAckLastLocal
                       : HandlerId::InvalAckLastRemote,
                 line, 0, CcBusOp::None,
                 [this, line, local, bus_txn, req, version](Exec &,
                                                            Tick t) {
                     if (local) {
                         bus_.deferredRespond(bus_txn, version, t);
                         dirHome(line, t);
                     } else {
                         sendMsg(MsgType::DataExclReply, line, req, req,
                                 version, false, t);
                         dirOwner(line, req, t);
                     }
                     closeHomeTxn(line, t);
                 });
}

void
CoherenceController::requesterData(unsigned engine_idx, const Msg &msg)
{
    const Addr line = msg.lineAddr;
    const bool excl = msg.type == MsgType::DataExclReply;
    const std::uint64_t version = msg.version;
    // An exclusive grant whose request was parked behind an earlier
    // read transaction may find Shared copies that local fills
    // re-established after the upgrade's original bus snoop; they
    // must die before the Modified fill (the home only invalidates
    // REMOTE sharers). In the unconflicted path no local copy can
    // exist here — the requester dropped its own copy at miss issue
    // and the snoop killed the rest — so the extra bus invalidation
    // never fires.
    const bool stale_local = excl && probe_ != nullptr &&
                             probe_->lineCachedLocally(line);
    beginHandler(engine_idx,
                 excl ? HandlerId::DataReplyForRemoteReadExcl
                      : HandlerId::DataReplyForRemoteRead,
                 line, 0,
                 stale_local ? CcBusOp::InvalOnly : CcBusOp::None,
                 [this, line, version](Exec &, Tick t) {
                     completeRequesterFill(line, version, t);
                 });
}

void
CoherenceController::completeRequesterFill(Addr line_addr,
                                           std::uint64_t version,
                                           Tick t)
{
    auto it = reqPending_.find(line_addr);
    ccnuma_assert(it != reqPending_.end());
    // The fill succeeded; any home-nack retry streak on the line is
    // over.
    retries_.clear(line_addr);
    for (std::uint64_t txn_id : it->second.busTxns)
        bus_.deferredRespond(txn_id, version, t);
    ItemList conflicting = std::move(it->second.conflicting);
    reqPending_.erase(it);
    if (conflicting.empty())
        return;
    eq_.scheduleFunction(
        [this, conflicting = std::move(conflicting)] {
            requeueFront(conflicting);
        },
        t);
}

void
CoherenceController::ownerDataToHome(unsigned engine_idx,
                                     const Msg &msg)
{
    // The owner answered a forward for a local request: the data
    // completes the deferred bus transaction.
    const Addr line = msg.lineAddr;
    const bool excl = msg.type == MsgType::OwnerDataExclToHome;
    const HomeTxn &txn = homeBusy_.at(line);
    ccnuma_assert(txn.localRequest && txn.excl == excl);
    retries_.clear(line); // forward finally answered
    const std::uint64_t bus_txn = txn.busTxnId;
    beginHandler(engine_idx,
                 excl ? HandlerId::OwnerDataToHomeReadExcl
                      : HandlerId::OwnerDataToHomeRead,
                 line, 0, CcBusOp::None,
                 [this, msg, excl, bus_txn](Exec &, Tick t) {
                     const Addr l = msg.lineAddr;
                     bus_.deferredRespond(bus_txn, msg.version, t);
                     if (excl) {
                         dirHome(l, t);
                     } else {
                         // Memory reflects the owner's data (posted
                         // write riding the same transfer).
                         writeHomeMemory(l, msg.version, t);
                         if (msg.ownerRetains)
                             dirShared(l, sharerBit(msg.src), t);
                         else
                             dirHome(l, t);
                     }
                     closeHomeTxn(l, t);
                 });
}

void
CoherenceController::sharingWriteBack(unsigned engine_idx,
                                      const Msg &msg)
{
    const Addr line = msg.lineAddr;
    auto hb = homeBusy_.find(line);
    const DirEntry &d = dir_.entry(line);
    // A sharing writeback closing a forwarded read carries the
    // remote requester's id; a spontaneous demotion writeback
    // carries the sender's own id. Only the former completes the
    // active home transaction.
    const bool closes = hb != homeBusy_.end() && !hb->second.excl &&
                        !hb->second.localRequest &&
                        msg.requester != msg.src &&
                        msg.requester == hb->second.requester;
    if (!closes) {
        absorbWriteBack(engine_idx, HandlerId::SharingWriteBackAtHome,
                        msg, d);
        return;
    }
    const NodeId req = hb->second.requester;
    retries_.clear(line); // forward finally answered
    beginHandler(
        engine_idx, HandlerId::OwnerWriteBackToHomeRemoteRead, line, 0,
        CcBusOp::None, [this, msg, req](Exec &, Tick t) {
            const Addr l = msg.lineAddr;
            const NodeId owner = msg.src;
            writeHomeMemory(l, msg.version, t);
            dirShared(l,
                      sharerBit(req) |
                          (msg.ownerRetains ? sharerBit(owner) : 0),
                      t);
            sendMsg(MsgType::WriteBackAck, l, owner, owner, 0, false,
                    t);
            closeHomeTxn(l, t);
        });
}

void
CoherenceController::absorbWriteBack(unsigned engine_idx, HandlerId h,
                                     const Msg &msg, const DirEntry &d)
{
    // An eviction, or a spontaneous demotion (a local read of a dirty
    // line at the owner). Apply it only while the directory still
    // records the sender as owner; otherwise it is stale. Either way
    // the sender's writeback buffer entry is released.
    const bool applies =
        d.state == DirState::DirtyRemote && d.owner == msg.src;
    beginHandler(engine_idx, h, msg.lineAddr, 0, CcBusOp::None,
                 [this, msg, applies](Exec &, Tick t) {
                     const Addr l = msg.lineAddr;
                     const NodeId owner = msg.src;
                     if (applies) {
                         writeHomeMemory(l, msg.version, t);
                         if (msg.ownerRetains)
                             dirShared(l, sharerBit(owner), t);
                         else
                             dirHome(l, t);
                     }
                     sendMsg(MsgType::WriteBackAck, l, owner, owner, 0,
                             false, t);
                 });
}

void
CoherenceController::ownershipAck(unsigned engine_idx, const Msg &msg)
{
    const Addr line = msg.lineAddr;
    const HomeTxn &txn = homeBusy_.at(line);
    ccnuma_assert(txn.excl && !txn.localRequest);
    retries_.clear(line); // forward finally answered
    const NodeId req = txn.requester;
    beginHandler(engine_idx, HandlerId::OwnerAckToHomeRemoteReadExcl,
                 line, 0, CcBusOp::None,
                 [this, line, req](Exec &, Tick t) {
                     dirOwner(line, req, t);
                     closeHomeTxn(line, t);
                 });
}

void
CoherenceController::requestNacked(unsigned engine_idx, const Msg &msg)
{
    // HomeNack: our request raced ahead of our own ownership fill;
    // redo it from the top (the local probe will now find the copy,
    // or the retry will stall behind the writeback buffer).
    // RecoveryNack: the home fenced us out while it rebuilds its
    // directory; same teardown-and-retry, so the bounded backoff
    // naturally rides out the rebuild. Under a bounded retry policy
    // the re-attempt backs off exponentially and eventually
    // escalates.
    const Addr line = msg.lineAddr;
    const Tick backoff = retryDelay(
        line, msg.type == MsgType::RecoveryNack
                  ? "request nacked by a recovering home"
                  : "home-nacked request");
    beginHandler(engine_idx, HandlerId::OwnerNackAtHome, line, 0,
                 CcBusOp::None, [this, line, backoff](Exec &, Tick t) {
                     auto it = reqPending_.find(line);
                     ccnuma_assert(it != reqPending_.end());
                     ItemList items = pendingItems(line, it->second);
                     reqPending_.erase(it);
                     eq_.scheduleFunction(
                         [this, items = std::move(items)] {
                             requeueFront(items);
                         },
                         t + backoff);
                 });
}

void
CoherenceController::poisonNacked(unsigned engine_idx, const Msg &msg)
{
    // The home fenced us off a dead line: the data is gone for good
    // and no retry will resurrect it. Tear down everything pending on
    // the line, let the machine's poison fence kill the processors
    // blocked on it, and complete the deferred bus transactions with
    // a dummy response so the bus drains (the cache units drop them
    // via their poison-abort lists).
    const Addr line = msg.lineAddr;
    auto it = reqPending_.find(line);
    ItemList items = pendingItems(line, it->second);
    reqPending_.erase(it);
    missLadders_.erase(line);
    retries_.clear(line);
    beginHandler(engine_idx, HandlerId::OwnerNackAtHome, line, 0,
                 CcBusOp::None,
                 [this, line, items = std::move(items)](Exec &, Tick t) {
                     if (poisonFence_)
                         poisonFence_(line);
                     for (const auto &item : items)
                         bus_.deferredRespond(item.busTxnId, 0, t);
                 });
}

void
CoherenceController::ownerNacked(unsigned engine_idx, const Msg &msg)
{
    // The owner no longer had the line (its writeback is in flight):
    // close the transaction and re-present the original request.
    const Addr line = msg.lineAddr;
    ++statNacks;
    const DispatchItem original = homeBusy_.at(line).original;
    const Tick backoff = retryDelay(line, "owner-nacked forward");
    beginHandler(engine_idx, HandlerId::OwnerNackAtHome, line, 0,
                 CcBusOp::None,
                 [this, original, backoff](Exec &, Tick t) {
                     // The transaction is keyed by its request's line.
                     closeHomeTxn(original.lineAddr, t);
                     eq_.scheduleFunction(
                         [this, original] {
                             enqueue(queueOf(original), original,
                                     /*to_front=*/true);
                         },
                         t + backoff);
                 });
}

void
CoherenceController::dirProbe(unsigned engine_idx, const Msg &msg)
{
    // A restarted home is rebuilding its directory: report every
    // local copy of a line homed there.
    beginHandler(engine_idx, HandlerId::DirProbeAtSharer, msg.lineAddr,
                 0, CcBusOp::None, [this, msg](Exec &, Tick t) {
                     answerDirProbe(msg, t);
                 });
}

void
CoherenceController::dirProbeResponse(unsigned engine_idx,
                                      const Msg &msg)
{
    beginHandler(engine_idx, HandlerId::DirProbeRespAtHome,
                 msg.lineAddr, 0, CcBusOp::None,
                 [this, msg](Exec &, Tick t) {
                     if (msg.type == MsgType::DirProbeResp) {
                         applyProbeResp(msg);
                         dir_.scheduleWrite(msg.lineAddr, t);
                     } else {
                         applyProbeDone(msg);
                     }
                     maybeFinishRebuild(t);
                 });
}

// ---------------------------------------------------------------------
// Fail-stop crash recovery (PR 6)
// ---------------------------------------------------------------------

void
CoherenceController::crash(bool lose_directory)
{
    ccnuma_assert(recovery_);
    ccnuma_assert(state_ == CcState::Normal && !deadForever_);
    ++statCrashes;
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::Crash, node_, 0,
                            eq_.curTick());
    }
    // Invalidate every scheduled continuation of in-flight handlers:
    // their lambdas captured the old epoch and now no-op (the one
    // holding a raw Exec deletes it). Pre-crash sendMsg events are
    // deliberately not guarded — those messages already left the
    // card's protocol logic for the network interface.
    ++epoch_;
    state_ = CcState::Crashed;
    dirLost_ = lose_directory;
    if (xport_ != nullptr)
        xport_->fenceNode(node_, true);

    // Collect everything this controller still owes an answer for:
    // local processor transactions awaiting a deferred response and
    // home-side requests it accepted responsibility for. A network
    // item parks or drops per its msgTraits() row. Bus transaction
    // ids dedup the sweep (one request can appear both in a
    // transient map and in an engine).
    std::unordered_set<std::uint64_t> seen;
    auto keep = [&](const DispatchItem &it) {
        if (!it.isBus) {
            if (msgTraits(it.msg.type).crash == OnCrash::Park)
                crashReplay_.push_back(it);
            else
                ++statCrashDropped;
            return;
        }
        if (it.busTxnId != 0 && !seen.insert(it.busTxnId).second)
            return;
        DispatchItem r = it;
        r.crashResend = true;
        crashReplay_.push_back(r);
    };

    for (const auto &e : engines_) {
        if (e.curItemValid)
            keep(e.curItem);
        for (const auto &q : e.queues) {
            for (const auto &it : q)
                keep(it);
        }
    }
    for (const auto &[line, hb] : homeBusy_) {
        // A local request still needs its bus response. A remote
        // requester's transaction is simply dropped: the requester's
        // miss timer resends it with Msg::recoveryResend set.
        if (hb.localRequest)
            keep(hb.original);
        else
            ++statCrashDropped;
    }
    for (const auto &[line, q] : homeWaiting_) {
        for (const auto &it : q)
            keep(it);
    }
    for (const auto &[line, q] : wbWaiting_) {
        for (const auto &it : q)
            keep(it);
    }
    for (const auto &[line, rp] : reqPending_) {
        for (const auto &it : pendingItems(line, rp))
            keep(it);
    }
    dropTransientState();
    // The writeback buffer survives: it is bus-side data-path SRAM,
    // and its entries are the only copy of evicted dirty lines.

    if (lose_directory)
        dir_.invalidateAll();

    ccnuma_trace(0, "%8llu %s CRASH (directory %s), %zu items parked",
                 (unsigned long long)eq_.curTick(), name_.c_str(),
                 lose_directory ? "lost" : "intact",
                 crashReplay_.size());
}

void
CoherenceController::dropTransientState()
{
    for (auto &e : engines_) {
        e.busy = false;
        e.curItemValid = false;
        e.curLineValid = false;
        e.curHandler = 0xff;
        e.curExtraTargets = 0;
        e.netBypass = 0;
        e.stallStreak = 0;
        for (auto &q : e.queues)
            q.clear();
    }
    homeBusy_.clear();
    homeWaiting_.clear();
    wbWaiting_.clear();
    reqPending_.clear();
    deferredLocal_.clear();
    fetches_.clear();
    missLadders_.clear();
    // All in-flight operations died with the card; their per-line
    // retry streaks are meaningless now.
    retries_.clearAll();
}

void
CoherenceController::restart()
{
    ccnuma_assert(state_ == CcState::Crashed && !deadForever_);
    restartTick_ = eq_.curTick();
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::Restart, node_, 0,
                            eq_.curTick());
    }
    if (xport_ != nullptr)
        xport_->fenceNode(node_, false);
    if (!dirLost_) {
        state_ = CcState::Normal;
        replayAfterRestart(eq_.curTick());
        return;
    }
    dirLost_ = false;
    state_ = CcState::Recovering;
    const Tick t = eq_.curTick();
    probeDonesOutstanding_ = map_.numNodes() - 1;
    probeRespsExpected_ = 0;
    probeRespsApplied_ = 0;
    ccnuma_trace(0, "%8llu %s RESTART: rebuilding directory from %u "
                 "peers", (unsigned long long)t, name_.c_str(),
                 probeDonesOutstanding_);
    if (probeDonesOutstanding_ == 0) {
        finishRebuild(t);
        return;
    }
    // One wave: every peer is probed at once, in ascending order.
    if (tracer_)
        tracer_->faultEvent(obs::FaultKind::RebuildWave, node_, 0, t);
    for (NodeId peer = 0; peer < map_.numNodes(); ++peer) {
        if (peer != node_)
            sendMsg(MsgType::DirProbe, 0, peer, node_, 0, false, t);
    }
}

void
CoherenceController::answerDirProbe(const Msg &msg, Tick t)
{
    const NodeId home = msg.src;
    std::uint64_t count = 0;
    // Msg::ownerRetains doubles as the dirty flag in a probe
    // response: true means this node holds the only valid data.
    if (cacheScan_) {
        cacheScan_(home, [&](Addr l, bool modified,
                             std::uint64_t ver) {
            sendMsg(MsgType::DirProbeResp, l, home, node_, ver,
                    /*retains=*/modified, t);
            ++count;
        });
    }
    // The writeback buffer holds evicted dirty lines whose WriteBack
    // message the crashed home never absorbed; report them as owned
    // here so the rebuilt directory accepts the parked writeback.
    for (const auto &[l, wb] : wbBuffer_) {
        if (map_.homeOf(l) == home) {
            sendMsg(MsgType::DirProbeResp, l, home, node_,
                    wb.version, /*retains=*/true, t);
            ++count;
        }
    }
    sendMsg(MsgType::DirProbeDone, 0, home, node_, count, false, t);
}

void
CoherenceController::applyProbeResp(const Msg &msg)
{
    ccnuma_assert(state_ == CcState::Recovering);
    DirEntry &e = dir_.entry(msg.lineAddr);
    if (msg.ownerRetains) {
        // Dirty at the responder: it is the owner.
        e.state = DirState::DirtyRemote;
        e.owner = msg.src;
        e.sharers = 0;
    } else if (e.state != DirState::DirtyRemote) {
        e.state = DirState::SharedRemote;
        e.addSharer(msg.src);
    }
    ++probeRespsApplied_;
    ++statRebuildLines;
}

void
CoherenceController::applyProbeDone(const Msg &msg)
{
    ccnuma_assert(state_ == CcState::Recovering);
    ccnuma_assert(probeDonesOutstanding_ > 0);
    --probeDonesOutstanding_;
    probeRespsExpected_ += msg.version;
}

void
CoherenceController::maybeFinishRebuild(Tick t)
{
    if (state_ != CcState::Recovering)
        return;
    if (probeDonesOutstanding_ > 0 ||
        probeRespsApplied_ < probeRespsExpected_)
        return;
    finishRebuild(t);
}

void
CoherenceController::finishRebuild(Tick t)
{
    ccnuma_assert(state_ == CcState::Recovering);
    ++statDirRebuilds;
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::RebuildDone, node_, 0,
                            t);
    }
    const Tick latency = t - restartTick_;
    reconstructionTicksMax_ =
        std::max(reconstructionTicksMax_, latency);
    ccnuma_trace(0, "%8llu %s REBUILD complete in %llu ticks",
                 (unsigned long long)t, name_.c_str(),
                 (unsigned long long)latency);
    // Cross-check the rebuilt map against the checker's shadow
    // directory before trusting it with live traffic.
    if (rebuildCheckHook_)
        rebuildCheckHook_(node_);
    state_ = CcState::Normal;
    replayAfterRestart(t);
}

void
CoherenceController::replayAfterRestart(Tick t)
{
    ccnuma_assert(state_ == CcState::Normal);
    std::deque<DispatchItem> items = std::move(crashReplay_);
    crashReplay_.clear();
    std::deque<Msg> wbs = std::move(rebuildParkedWb_);
    rebuildParkedWb_.clear();
    if (items.empty() && wbs.empty())
        return;
    eq_.scheduleFunction(
        [this, items, wbs] {
            // Writebacks first: they carry data the rebuilt
            // directory already expects from their senders.
            for (const auto &m : wbs) {
                DispatchItem it;
                it.msg = m;
                it.lineAddr = m.lineAddr;
                enqueue(queueOf(it), it);
            }
            for (const auto &it : items) {
                // A deferred read the card answered in its final
                // ticks before the crash (response issued, engine
                // not yet released) needs nothing more: the data
                // phase completes on the bus regardless. Replaying
                // it would answer the transaction twice. WriteBack
                // and Inval items keep their network obligations
                // even though their address phases closed long ago.
                if (it.isBus && it.busTxnId != 0 &&
                    (it.busCmd == BusCmd::Read ||
                     it.busCmd == BusCmd::ReadExcl) &&
                    (!bus_.isOpen(it.busTxnId) ||
                     bus_.fillScheduled(it.busTxnId))) {
                    ccnuma_trace(it.lineAddr,
                                 "%8llu %s replay elides answered "
                                 "bus txn %llu",
                                 (unsigned long long)eq_.curTick(),
                                 name_.c_str(),
                                 (unsigned long long)it.busTxnId);
                    continue;
                }
                enqueue(queueOf(it), it);
            }
        },
        t);
}

void
CoherenceController::missTimeout(Addr line_addr)
{
    if (!recovery_ || state_ != CcState::Normal || deadForever_) {
        return;
    }
    auto it = reqPending_.find(line_addr);
    if (it == reqPending_.end())
        return; // the timer raced with the fill
    ++statMissTimeouts;
    MissLadder &lad = missLadders_[line_addr];
    const NodeId home = map_.homeOf(line_addr);
    const bool excl = it->second.excl;
    if (lad.resends < timeoutRetries) {
        ++lad.resends;
        ++statTimeoutResends;
        sendMsg(excl ? MsgType::ReadExclReq : MsgType::ReadReq,
                line_addr, home, node_, 0, false, eq_.curTick(),
                /*recovery_resend=*/true);
        return;
    }
    if (lad.probes < probeRetries) {
        ++lad.probes;
        ++statRecoveryProbes;
        sendMsg(MsgType::RecoveryProbe, line_addr, home, node_, 0,
                false, eq_.curTick());
        return;
    }
    // The home answered neither resends nor liveness probes: it is
    // gone. Degraded mode fences it and migrates its pages.
    ++statDegradedEntries;
    missLadders_.erase(line_addr);
    ccnuma_trace(line_addr,
                 "%8llu %s DEGRADED: home node%u presumed dead",
                 (unsigned long long)eq_.curTick(), name_.c_str(),
                 home);
    if (degradedHook_)
        degradedHook_(home);
}

bool
CoherenceController::strayDrop(const char *what)
{
    if (!recovery_)
        return false;
    ++statStrayDrops;
    ccnuma_trace(0, "%8llu %s stray %s dropped",
                 (unsigned long long)eq_.curTick(), name_.c_str(),
                 what);
    return true;
}

std::vector<std::pair<Addr, std::uint64_t>>
CoherenceController::drainWbHomedAt(NodeId home)
{
    std::vector<std::pair<Addr, std::uint64_t>> out;
    for (auto it = wbBuffer_.begin(); it != wbBuffer_.end();) {
        const Addr line = it->first;
        if (map_.homeOf(line) != home) {
            ++it;
            continue;
        }
        out.emplace_back(line, it->second.version);
        it = wbBuffer_.erase(it);
        // The writeback is as absorbed as it will ever be; release
        // requests stalled behind it.
        releaseWbWaiting(line);
    }
    return out;
}

void
CoherenceController::replayPendingHomedAt(NodeId home)
{
    std::deque<DispatchItem> items;
    for (auto it = reqPending_.begin(); it != reqPending_.end();) {
        const Addr line = it->first;
        if (map_.homeOf(line) != home) {
            ++it;
            continue;
        }
        for (const auto &di : pendingItems(line, it->second))
            items.push_back(di);
        missLadders_.erase(line);
        retries_.clear(line);
        it = reqPending_.erase(it);
    }
    if (items.empty())
        return;
    // Deferred so the caller can flip the address-map remap first;
    // the replays then route to the successor home.
    eq_.scheduleFunction(
        [this, items] {
            for (const auto &di : items)
                enqueue(QBusRequest, di);
        },
        eq_.curTick());
}

void
CoherenceController::shutdownPermanently()
{
    ++epoch_;
    deadForever_ = true;
    state_ = CcState::Crashed;
    dropTransientState();
    wbBuffer_.clear();
    crashReplay_.clear();
    rebuildParkedWb_.clear();
    probeDonesOutstanding_ = 0;
    probeRespsExpected_ = 0;
    probeRespsApplied_ = 0;
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

bool
CoherenceController::idle() const
{
    if (deadForever_)
        return true; // permanently retired: nothing will ever move
    if (state_ != CcState::Normal || !crashReplay_.empty() ||
        !rebuildParkedWb_.empty()) {
        return false;
    }
    if (!homeBusy_.empty() || !reqPending_.empty() ||
        !fetches_.empty() || !wbBuffer_.empty() ||
        !deferredLocal_.empty()) {
        return false;
    }
    for (const auto &kv : homeWaiting_) {
        if (!kv.second.empty())
            return false;
    }
    for (const auto &kv : wbWaiting_) {
        if (!kv.second.empty())
            return false;
    }
    for (const auto &e : engines_) {
        if (e.busy)
            return false;
        for (const auto &q : e.queues) {
            if (!q.empty())
                return false;
        }
    }
    return true;
}

bool
CoherenceController::lineQuiet(Addr line_addr) const
{
    if (state_ != CcState::Normal && !deadForever_)
        return false;
    for (const auto &it : crashReplay_) {
        if (it.lineAddr == line_addr)
            return false;
    }
    for (const auto &m : rebuildParkedWb_) {
        if (m.lineAddr == line_addr)
            return false;
    }
    if (homeBusy_.count(line_addr) || reqPending_.count(line_addr) ||
        wbBuffer_.count(line_addr) ||
        deferredLocal_.count(line_addr)) {
        return false;
    }
    if (auto it = homeWaiting_.find(line_addr);
        it != homeWaiting_.end() && !it->second.empty()) {
        return false;
    }
    if (auto it = wbWaiting_.find(line_addr);
        it != wbWaiting_.end() && !it->second.empty()) {
        return false;
    }
    for (const auto &kv : fetches_) {
        if (kv.second->lineAddr == line_addr)
            return false;
    }
    for (const auto &e : engines_) {
        if (e.busy && e.curLineValid && e.curLine == line_addr)
            return false;
        for (const auto &q : e.queues) {
            for (const auto &item : q) {
                if (item.lineAddr == line_addr)
                    return false;
            }
        }
    }
    return true;
}

std::uint64_t
CoherenceController::totalArrivals() const
{
    std::uint64_t n = 0;
    for (const auto &e : engines_)
        n += e.arrivals;
    return n;
}

Tick
CoherenceController::totalOccupancy() const
{
    Tick n = 0;
    for (const auto &e : engines_)
        n += e.occupancyTicks;
    return n;
}

Tick
CoherenceController::engineOccupancy(unsigned e) const
{
    return engines_.at(e).occupancyTicks;
}

std::uint64_t
CoherenceController::engineArrivals(unsigned e) const
{
    return engines_.at(e).arrivals;
}

double
CoherenceController::engineQueueDelay(unsigned e) const
{
    const Engine &en = engines_.at(e);
    return en.queueDelayCount
               ? en.queueDelaySum /
                     static_cast<double>(en.queueDelayCount)
               : 0.0;
}

double
CoherenceController::meanQueueDelay() const
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto &e : engines_) {
        sum += e.queueDelaySum;
        n += e.queueDelayCount;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

void
CoherenceController::dumpState(std::ostream &os) const
{
    os << name_ << ":";
    if (deadForever_) {
        os << " DEAD(degraded-mode fence)";
    } else if (state_ == CcState::Crashed) {
        os << " CRASHED(parked=" << crashReplay_.size() << ")";
    } else if (state_ == CcState::Recovering) {
        os << " RECOVERING(donesPending=" << probeDonesOutstanding_
           << ",resps=" << probeRespsApplied_ << "/"
           << probeRespsExpected_
           << ",parkedWb=" << rebuildParkedWb_.size() << ")";
    }
    for (const auto &[line, hb] : homeBusy_) {
        os << " homeBusy(" << std::hex << line << std::dec
           << ",req=" << hb.requester << ",excl=" << hb.excl
           << ",acks=" << hb.acksExpected << ")";
    }
    for (const auto &[line, rp] : reqPending_) {
        os << " reqPending(" << std::hex << line << std::dec
           << ",excl=" << rp.excl << ",txns=" << rp.busTxns.size()
           << ",confl=" << rp.conflicting.size() << ")";
    }
    for (const auto &[line, wb] : wbBuffer_) {
        os << " wb(" << std::hex << line << std::dec << ")";
    }
    for (const auto &[line, q] : wbWaiting_) {
        if (!q.empty())
            os << " wbWait(" << std::hex << line << std::dec << ","
               << q.size() << ")";
    }
    for (const auto &[line, q] : homeWaiting_) {
        if (!q.empty())
            os << " homeWait(" << std::hex << line << std::dec
               << "," << q.size() << ")";
    }
    for (const auto &e : engines_) {
        os << " engine" << e.idx << "(busy=" << e.busy << ",q="
           << e.queues[0].size() << "/" << e.queues[1].size() << "/"
           << e.queues[2].size() << ")";
    }
    os << "\n";
}

void
CoherenceController::resetStats()
{
    for (auto &e : engines_) {
        e.occupancyTicks = 0;
        e.arrivals = 0;
        e.queueDelaySum = 0.0;
        e.queueDelayCount = 0;
    }
    statGroup_.resetAll();
}

} // namespace ccnuma
