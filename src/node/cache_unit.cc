#include "node/cache_unit.hh"

#include <algorithm>

namespace ccnuma
{

CacheUnit::CacheUnit(const std::string &name, EventQueue &eq,
                     Bus &bus, AddressMap &map, NodeId node,
                     const CacheUnitParams &p,
                     std::function<std::uint64_t()> next_version)
    : name_(name), eq_(eq), bus_(bus), map_(map), node_(node),
      params_(p), nextVersion_(std::move(next_version)),
      l1_(name + ".l1", p.l1Bytes, p.l1Assoc, bus.lineBytes()),
      l2_(name + ".l2", p.l2Bytes, p.l2Assoc, bus.lineBytes()),
      statGroup_(name)
{
    agentId_ = bus_.addAgent(this);
    statGroup_.add(&statL1Hits);
    statGroup_.add(&statL2Hits);
    statGroup_.add(&statMisses);
    statGroup_.add(&statUpgradeMisses);
    statGroup_.add(&statWriteBacks);
}

CacheUnit::AccessResult
CacheUnit::access(Addr addr, bool write)
{
    CacheLine *c2 = l2_.findLine(addr);
    if (!c2) {
        ++statMisses;
        return {};
    }
    if (write) {
        if (c2->state == LineState::Shared) {
            // Need exclusive ownership from the home.
            ++statUpgradeMisses;
            ++statMisses;
            return {};
        }
        // E -> M is a silent local upgrade (local lines only; remote
        // lines are never Exclusive).
        c2->state = LineState::Modified;
        c2->version = nextVersion_();
        l2_.touch(c2);
        CacheLine *c1 = l1_.findLine(addr);
        if (c1) {
            c1->version = c2->version;
            l1_.touch(c1);
            ++statL1Hits;
            return {true, params_.l1HitLatency, c2->version};
        }
        ++statL2Hits;
        return {true, params_.l2HitLatency, c2->version};
    }
    l2_.touch(c2);
    CacheLine *c1 = l1_.findLine(addr);
    if (c1) {
        l1_.touch(c1);
        ++statL1Hits;
        return {true, params_.l1HitLatency, c2->version};
    }
    // L1 fill from L2; the L1 is a clean subset, so the victim is
    // dropped silently.
    CacheLine *nl1 = l1_.allocate(addr, LineState::Shared, nullptr);
    nl1->version = c2->version;
    ++statL2Hits;
    return {true, params_.l2HitLatency, c2->version};
}

void
CacheUnit::issueMiss(Addr addr, bool write)
{
    Addr line = l2_.lineAlign(addr);
    // Under first-touch placement, the first miss pins the page to
    // the missing processor's node.
    map_.resolve(line, node_);
    // A store to a Shared copy consumes its stale copy now; the
    // exclusive fill brings fresh data.
    if (write) {
        l2_.invalidate(line);
        l1_.invalidate(line);
    }
    mshr_.valid = true;
    mshr_.lineAddr = line;
    mshr_.write = write;
    mshr_.invalAfterFill = false;
    mshr_.busTxnId = bus_.request(
        write ? BusCmd::ReadExcl : BusCmd::Read, line, agentId_);
    armMissTimer();
}

void
CacheUnit::armMissTimer()
{
    if (!missTimeoutHook_)
        return;
    const std::uint64_t gen = ++missGen_;
    const Addr line = mshr_.lineAddr;
    eq_.scheduleFunctionIn(
        [this, gen, line] {
            if (gen != missGen_ || !mshr_.valid ||
                mshr_.lineAddr != line) {
                return; // the miss completed; stale timer
            }
            missTimeoutHook_(line);
            // Still stuck: re-arm so the escalation ladder keeps
            // climbing until the fill lands or degraded mode fences
            // the home.
            armMissTimer();
        },
        missTimeoutTicks_);
}

bool
CacheUnit::hasLine(Addr addr) const
{
    if (l2_.findLine(addr) != nullptr)
        return true;
    Addr line = l2_.lineAlign(addr);
    for (const auto &wb : wbBuffer_) {
        if (wb.lineAddr == line)
            return true;
    }
    return false;
}

SnoopResult
CacheUnit::wbSupply(BusTxn &txn)
{
    // The line's only copy may be in the writeback buffer, in flight
    // to memory/home. Supply local lines to anyone (memory has not
    // absorbed the data yet); supply remote lines only to the
    // coherence controller's own fetches — other requesters must be
    // serialized through the home node.
    if (txn.cmd != BusCmd::Read && txn.cmd != BusCmd::ReadExcl)
        return SnoopResult::None;
    const Addr line = txn.lineAddr;
    for (const auto &wb : wbBuffer_) {
        if (wb.lineAddr != line)
            continue;
        bool local = map_.homeOf(line) == node_;
        if (local || txn.fromCC) {
            txn.dataVersion = wb.version;
            return SnoopResult::DirtySupply;
        }
        break;
    }
    return SnoopResult::None;
}

bool
CacheUnit::busRetryCheck(const BusTxn &txn) const
{
    // Our fill is bus-ordered ahead of this transaction but has not
    // installed yet: the requester must retry so it observes our
    // copy — a store it must take from us instead of the stale
    // memory image, or a read whose Exclusive grant would otherwise
    // be duplicated. Only applies once our fill's data is actually
    // scheduled — a deferred request is ordered at the home instead,
    // and must not stall the home's own operations.
    return mshr_.valid && mshr_.lineAddr == txn.lineAddr &&
           txn.id != mshr_.busTxnId &&
           txn.cmd != BusCmd::WriteBack &&
           bus_.fillScheduled(mshr_.busTxnId);
}

SnoopResult
CacheUnit::busSnoop(BusTxn &txn)
{
    const Addr line = txn.lineAddr;

    // A read fill in flight is invalidated after it completes if an
    // exclusive request passes it on the bus: the fill's data is
    // ordered before that writer and may be consumed once. A
    // read-exclusive fill is never poisoned this way — the home
    // serialized the racing invalidation *before* our ownership
    // grant, and our stale Shared copy was already dropped when the
    // miss was issued.
    if (mshr_.valid && !mshr_.write && mshr_.lineAddr == line &&
        (txn.cmd == BusCmd::ReadExcl || txn.cmd == BusCmd::Inval) &&
        txn.id != mshr_.busTxnId) {
        mshr_.invalAfterFill = true;
    }

    CacheLine *c2 = l2_.findLine(line);
    if (!c2)
        return wbSupply(txn);
    ccnuma_trace(line, "%8llu %s snoop %s in %s ver=%llu",
                 (unsigned long long)eq_.curTick(), name_.c_str(),
                 busCmdName(txn.cmd), lineStateName(c2->state),
                 (unsigned long long)c2->version);

    switch (txn.cmd) {
      case BusCmd::Read: {
        if (c2->state == LineState::Modified) {
            c2->state = LineState::Shared;
            txn.dataVersion = c2->version;
            CacheLine *c1 = l1_.findLine(line);
            if (c1)
                c1->version = c2->version;
            return SnoopResult::DirtySupply;
        }
        if (c2->state == LineState::Exclusive)
            c2->state = LineState::Shared;
        // Shared copies of remote lines may be supplied
        // cache-to-cache within the node (the directory tracks
        // nodes, not processors).
        if (map_.homeOf(line) != node_) {
            txn.dataVersion = c2->version;
            return SnoopResult::SharedSupply;
        }
        return SnoopResult::Shared;
      }
      case BusCmd::ReadExcl: {
        LineState prior = c2->state;
        std::uint64_t version = c2->version;
        if (prior == LineState::Modified)
            txn.dataVersion = version;
        l2_.invalidate(line);
        l1_.invalidate(line);
        if (prior == LineState::Modified)
            return SnoopResult::DirtySupply;
        // Shared copies of remote lines can feed the coherence
        // controller's exclusive fetches (serving a forwarded
        // read-exclusive after a demotion left only Shared copies).
        if (map_.homeOf(line) != node_) {
            txn.dataVersion = version;
            return SnoopResult::SharedSupply;
        }
        return SnoopResult::Shared;
      }
      case BusCmd::Inval:
        l2_.invalidate(line);
        l1_.invalidate(line);
        return SnoopResult::Shared;
      case BusCmd::WriteBack:
        return SnoopResult::None;
    }
    return SnoopResult::None;
}

void
CacheUnit::installFill(Addr line_addr, bool write, const BusTxn &txn)
{
    LineState st;
    std::uint64_t version = txn.dataVersion;
    if (write) {
        st = LineState::Modified;
        version = nextVersion_();
    } else if (map_.homeOf(line_addr) == node_ && !txn.sharedSeen &&
               txn.exclusiveOk &&
               txn.supply == SupplyDecision::Memory) {
        st = LineState::Exclusive;
    } else {
        st = LineState::Shared;
    }

    SetAssocCache::Victim victim;
    CacheLine *nl = l2_.allocate(line_addr, st, &victim);
    nl->version = version;
    ccnuma_trace(line_addr, "%8llu %s fill %s ver=%llu supply=%d",
                 (unsigned long long)eq_.curTick(), name_.c_str(),
                 lineStateName(st), (unsigned long long)version,
                 (int)txn.supply);
    if (victim.valid) {
        l1_.invalidate(victim.lineAddr);
        if (victim.state == LineState::Modified) {
            ++statWriteBacks;
            std::uint64_t wb_txn =
                bus_.request(BusCmd::WriteBack, victim.lineAddr,
                             agentId_, victim.version);
            wbBuffer_.push_back(
                {victim.lineAddr, victim.version, wb_txn});
        }
    }
    // Mirror into L1.
    if (l1_.findLine(line_addr) == nullptr) {
        CacheLine *nl1 =
            l1_.allocate(line_addr, LineState::Shared, nullptr);
        nl1->version = version;
    }
}

void
CacheUnit::poisonAbort(Addr line)
{
    if (!mshr_.valid || mshr_.lineAddr != line)
        return;
    poisonedTxns_.push_back(mshr_.busTxnId);
    mshr_.valid = false;
    mshr_.onRestart.reset();
    ++missGen_; // retire any armed miss timer
}

void
CacheUnit::busDone(BusTxn &txn)
{
    if (dead_)
        return;
    // Writeback transaction completed: the data moved on the bus and
    // was absorbed by memory or captured by the coherence controller.
    for (auto it = wbBuffer_.begin(); it != wbBuffer_.end(); ++it) {
        if (it->busTxnId == txn.id) {
            wbBuffer_.erase(it);
            return;
        }
    }

    // A poison-aborted miss's transaction draining (deferredRespond
    // after a PoisonNack): nothing to install, nobody to restart.
    auto pit = std::find(poisonedTxns_.begin(), poisonedTxns_.end(),
                         txn.id);
    if (pit != poisonedTxns_.end()) {
        poisonedTxns_.erase(pit);
        return;
    }

    ccnuma_assert(mshr_.valid && mshr_.busTxnId == txn.id);
    installFill(mshr_.lineAddr, mshr_.write, txn);
    std::uint64_t consumed =
        mshr_.write ? l2_.findLine(mshr_.lineAddr)->version
                    : txn.dataVersion;
    if (mshr_.invalAfterFill) {
        // An exclusive request passed us during the fill; the
        // processor consumes its (older, but coherently ordered)
        // value and the copy is dropped.
        l2_.invalidate(mshr_.lineAddr);
        l1_.invalidate(mshr_.lineAddr);
    }
    mshr_.valid = false;
    ++missGen_; // retire any armed miss timer
    mshr_.onRestart(eq_.curTick() + params_.fillRestart, consumed);
    mshr_.onRestart.reset();
}

} // namespace ccnuma
