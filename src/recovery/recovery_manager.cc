#include "recovery/recovery_manager.hh"

#include <unordered_map>

#include "net/reliable.hh"
#include "sim/logging.hh"
#include "verify/checker.hh"
#include "verify/fault_injector.hh"

namespace ccnuma
{

RecoveryManager::RecoveryManager(EventQueue &eq, AddressMap &map,
                                 std::vector<SmpNode *> nodes,
                                 ReliableTransport *xport,
                                 FaultInjector *injector,
                                 CoherenceChecker *checker)
    : eq_(eq), map_(map), nodes_(std::move(nodes)), xport_(xport),
      injector_(injector), checker_(checker),
      dead_(nodes_.size(), 0), migrationPending_(nodes_.size(), 0)
{
    ccnuma_assert(!nodes_.empty());
}

void
RecoveryManager::arm()
{
    for (SmpNode *nd : nodes_) {
        nd->cc().setDegradedHook(
            [this](NodeId dead) { scheduleMigration(dead); });
        if (checker_ != nullptr) {
            nd->cc().setRebuildCheckHook([this](NodeId home) {
                checker_->verifyRebuiltDirectory(home);
            });
        }
    }
    if (xport_ != nullptr) {
        // A frame that exhausts its retransmission budget against a
        // crashed (repairing) destination is not a dead pair: keep
        // retransmitting until the restart lifts the fence or the
        // degraded migration drains the pair.
        xport_->setPairDeadHook([this](NodeId, NodeId dst) {
            return nodes_.at(dst)->cc().ccState() !=
                   CoherenceController::CcState::Normal;
        });
    }
    if (injector_ == nullptr)
        return;
    for (const CrashFault &f : injector_->crashes()) {
        eq_.scheduleFunction([this, f] { fireCrash(f); }, f.atTick,
                             Event::defaultPriority, "crash fault");
        if (!f.permanent) {
            eq_.scheduleFunction(
                [this, node = f.node] { fireRestart(node); },
                f.atTick + CoherenceController::repairTicks,
                Event::defaultPriority,
                "controller restart");
        }
    }
}

void
RecoveryManager::fireCrash(const CrashFault &f)
{
    if (dead_.at(f.node))
        return; // already migrated away from
    nodes_.at(f.node)->cc().crash(f.loseDirectory);
    if (injector_ != nullptr)
        injector_->noteCrashInjected();
    ++crashesFired_;
}

void
RecoveryManager::fireRestart(NodeId node)
{
    if (dead_.at(node))
        return;
    nodes_.at(node)->cc().restart();
    ++restartsFired_;
}

NodeId
RecoveryManager::successorOf(NodeId dead) const
{
    const unsigned n = static_cast<unsigned>(nodes_.size());
    for (unsigned i = 1; i < n; ++i) {
        NodeId c = static_cast<NodeId>((dead + i) % n);
        if (!dead_[c])
            return c;
    }
    panic("degraded mode: no surviving successor for node %u", dead);
}

void
RecoveryManager::scheduleMigration(NodeId dead)
{
    // The degraded hook fires inside a cache-unit timer event on the
    // requester; the migration mutates state machine-wide, so give it
    // its own event (same tick) instead of running reentrantly.
    if (dead_.at(dead) || migrationPending_.at(dead))
        return;
    migrationPending_[dead] = 1;
    eq_.scheduleFunction([this, dead] { migrate(dead); },
                         eq_.curTick(), Event::defaultPriority,
                         "degraded migration");
}

void
RecoveryManager::migrate(NodeId dead)
{
    if (dead_.at(dead))
        return;
    dead_[dead] = 1;
    ++migrations_;
    const NodeId succ = successorOf(dead);
    SmpNode &dn = *nodes_.at(dead);
    MemoryController &dmem = dn.memory();

    auto apply_max = [](MemoryController &m, Addr line,
                        std::uint64_t v) {
        if (v > m.version(line))
            m.setVersion(line, v);
    };

    // 1. Survivors' controller writeback buffers holding data homed
    //    at the dead node: their WriteBack messages would be dropped
    //    at the fence, so fold the data into the image being
    //    migrated.
    for (SmpNode *nd : nodes_) {
        if (nd->id() == dead)
            continue;
        for (auto &[line, ver] : nd->cc().drainWbHomedAt(dead))
            apply_max(dmem, line, ver);
    }

    // 2. Flush the dead node's own dirty data — Modified L2 lines,
    //    cache-level writeback buffers, and the dead controller's
    //    captured writebacks of remote-homed lines — to the lines'
    //    home memories, and release the dead node's directory claims
    //    at the surviving homes.
    std::unordered_map<Addr, std::uint64_t> dirty;
    std::unordered_map<Addr, char> clean;
    auto note_dirty = [&](Addr line, std::uint64_t ver) {
        auto [it, ins] = dirty.try_emplace(line, ver);
        if (!ins && ver > it->second)
            it->second = ver;
    };
    for (unsigned i = 0; i < dn.numProcs(); ++i) {
        dn.cacheUnit(i).l2().forEachLine([&](const CacheLine &l) {
            if (l.state == LineState::Modified)
                note_dirty(l.lineAddr, l.version);
            else
                clean.try_emplace(l.lineAddr, 1);
        });
        dn.cacheUnit(i).forEachWb(note_dirty);
    }
    for (NodeId h = 0; h < static_cast<NodeId>(nodes_.size()); ++h) {
        for (auto &[line, ver] : dn.cc().drainWbHomedAt(h))
            note_dirty(line, ver);
    }
    for (auto &[line, ver] : dirty) {
        const NodeId h = map_.homeOf(line);
        if (h == dead) {
            apply_max(dmem, line, ver);
            continue;
        }
        apply_max(nodes_.at(h)->memory(), line, ver);
        DirEntry &e = nodes_.at(h)->directory().entry(line);
        if (e.state == DirState::DirtyRemote && e.owner == dead) {
            e.state = DirState::Home;
            e.sharers = 0;
        }
    }
    for (auto &[line, unused] : clean) {
        (void)unused;
        const NodeId h = map_.homeOf(line);
        if (h == dead)
            continue;
        nodes_.at(h)->directory().entry(line).removeSharer(dead);
    }

    // 3. Migrate the home: memory image to the successor, and a
    //    directory for the dead-homed lines rebuilt from the actual
    //    surviving caches (the dead node's own map may be stale or
    //    lost with the crash). Copies held by the successor itself
    //    become home-local after the remap and are not tracked.
    MemoryController &smem = nodes_.at(succ)->memory();
    for (const auto &[line, ver] : dmem.versions())
        apply_max(smem, line, ver);
    DirectoryStore &sdir = nodes_.at(succ)->directory();
    for (SmpNode *nd : nodes_) {
        if (nd->id() == dead || nd->id() == succ)
            continue;
        const NodeId owner = nd->id();
        auto note_copy = [&](Addr line, bool dirty_copy) {
            if (map_.homeOf(line) != dead)
                return;
            DirEntry &e = sdir.entry(line);
            if (dirty_copy) {
                e.state = DirState::DirtyRemote;
                e.owner = owner;
                e.sharers = 0;
            } else if (e.state != DirState::DirtyRemote) {
                e.state = DirState::SharedRemote;
                e.addSharer(owner);
            }
        };
        for (unsigned i = 0; i < nd->numProcs(); ++i) {
            nd->cacheUnit(i).l2().forEachLine(
                [&](const CacheLine &l) {
                    note_copy(l.lineAddr,
                              l.state == LineState::Modified);
                });
            nd->cacheUnit(i).forEachWb(
                [&](Addr line, std::uint64_t) {
                    note_copy(line, true);
                });
        }
    }

    // 4. The dead node itself: processors stop retiring, caches drop
    //    their (now migrated) contents, the controller goes dark for
    //    good, and its network pairs drain.
    for (unsigned i = 0; i < dn.numProcs(); ++i) {
        dn.proc(i).kill();
        dn.cacheUnit(i).shutdown();
    }
    dn.cc().shutdownPermanently();
    if (xport_ != nullptr)
        xport_->fenceNodeDead(dead);

    // 5. Survivors re-route: collect every pending request homed at
    //    the dead node (replays are scheduled for this tick), then
    //    flip the page remap so the replays dispatch against the
    //    successor.
    for (SmpNode *nd : nodes_) {
        if (nd->id() != dead)
            nd->cc().replayPendingHomedAt(dead);
    }
    map_.setNodeRemap(dead, succ);

    warn("degraded mode: node %u fenced at tick %llu; its pages "
         "remapped to node %u", dead,
         (unsigned long long)eq_.curTick(), succ);
}

} // namespace ccnuma
