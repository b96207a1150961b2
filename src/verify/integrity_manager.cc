#include "verify/integrity_manager.hh"

#include "obs/tracer.hh"
#include "sim/logging.hh"
#include "verify/fault_injector.hh"

namespace ccnuma
{

IntegrityManager::IntegrityManager(EventQueue &eq, AddressMap &map,
                                   std::vector<SmpNode *> nodes,
                                   FaultInjector *injector)
    : eq_(eq), map_(map), nodes_(std::move(nodes)),
      injector_(injector)
{
    ccnuma_assert(!nodes_.empty());
}

void
IntegrityManager::arm()
{
    if (injector_ == nullptr)
        return;
    for (const FlipFault &f : injector_->flips()) {
        eq_.scheduleFunction([this, f] { fireFlip(f); }, f.atTick,
                             Event::defaultPriority, "flip fault");
    }
}

void
IntegrityManager::fireFlip(const FlipFault &f)
{
    switch (f.domain) {
      case FlipDomain::Message:
        // Arm the transport hook: the node's next frame is corrupted
        // at transmit time. Whether the arm ever hits a frame is the
        // injector's framesCorrupted() count; the machine closes the
        // ledger from it.
        injector_->armMessageFlip(f.node, f.bits, f.seed);
        ++messageFlipsArmed_;
        if (tracer_) {
            tracer_->faultEvent(obs::FaultKind::FlipInjected, f.node,
                                0, eq_.curTick());
        }
        return;
      case FlipDomain::Directory:
        fireDirectoryFlip(f);
        return;
      case FlipDomain::Cache:
        fireCacheFlip(f);
        return;
    }
}

void
IntegrityManager::fireDirectoryFlip(const FlipFault &f)
{
    SmpNode &nd = *nodes_.at(f.node);
    if (nd.cc().ccState() != CoherenceController::CcState::Normal) {
        // The card is dark or rebuilding; its directory SRAM is not
        // live state a flip could corrupt meaningfully.
        ++flipsSkipped_;
        return;
    }
    Random rng(f.seed);
    DirFlipResult r = nd.directory().injectFlip(rng, f.bits);
    if (!r.applied) {
        ++flipsSkipped_;
        return;
    }
    ++flipsApplied_;
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::FlipInjected, f.node,
                            r.line, eq_.curTick());
    }
    if (!r.uncorrectable) {
        // CE: the live word is corrupted in place; any access
        // corrects it first, and the scheduled scrub pass repairs it
        // even if nothing ever looks.
        scheduleScrub();
        return;
    }
    // Directory UE: the entry is lost beyond ECC. Escalate through
    // the PR 6 machinery — fail-stop the home with its directory and
    // let the restart rebuild the full map from the surviving caches
    // (which hold the ground truth the SRAM no longer does).
    ++escalations_;
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::Escalation, f.node,
                            r.line, eq_.curTick());
    }
    nd.cc().crash(/*lose_directory=*/true);
    const NodeId node = f.node;
    eq_.scheduleFunction(
        [this, node] {
            CoherenceController &cc = nodes_.at(node)->cc();
            if (cc.ccState() == CoherenceController::CcState::Crashed)
                cc.restart();
        },
        eq_.curTick() + CoherenceController::repairTicks,
        Event::defaultPriority,
        "integrity escalation restart");
}

void
IntegrityManager::fireCacheFlip(const FlipFault &f)
{
    SmpNode &nd = *nodes_.at(f.node);
    Random rng(f.seed);
    const unsigned procs = nd.numProcs();

    if (f.bits < 2) {
        // CE: corrupt one word of one valid line in some cache unit;
        // the access path (or the scrub) corrects it exactly.
        unsigned start = static_cast<unsigned>(rng.below(procs));
        for (unsigned i = 0; i < procs; ++i) {
            unsigned u = (start + i) % procs;
            Addr victim = nd.cacheUnit(u).injectCeFlip(rng);
            if (victim == kNoLineTag)
                continue; // empty cache; try the next unit
            ++flipsApplied_;
            if (tracer_) {
                tracer_->faultEvent(obs::FaultKind::FlipInjected,
                                    f.node, victim, eq_.curTick());
            }
            scheduleScrub();
            return;
        }
        ++flipsSkipped_;
        return;
    }

    // UE: the copy is lost beyond ECC. Collect containment-eligible
    // victims: lines with no in-flight protocol traffic anywhere (a
    // UE racing an active transaction would need the full protocol
    // state machine poisoned too — real hardware bounds this the
    // same way, by scrubbing idle lines and crashing otherwise).
    struct Candidate
    {
        unsigned unit;
        Addr line;
        bool dirty;
    };
    std::vector<Candidate> cands;
    for (unsigned u = 0; u < procs; ++u) {
        nd.cacheUnit(u).l2().forEachLine([&](const CacheLine &l) {
            if (f.preferClean && l.state == LineState::Modified)
                return;
            if (!lineQuietEverywhere(l.lineAddr))
                return;
            cands.push_back(
                {u, l.lineAddr, l.state == LineState::Modified});
        });
    }
    if (cands.empty()) {
        ++flipsSkipped_;
        return;
    }
    const Candidate &c = cands.at(static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(cands.size()))));
    ++flipsApplied_;
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::FlipInjected, f.node,
                            c.line, eq_.curTick());
    }
    if (!c.dirty) {
        // Clean copy: memory (or the owner) still has the data, so
        // containment is a silent discard — indistinguishable from a
        // clean eviction, which the protocol already tolerates.
        nd.cacheUnit(c.unit).discardLine(c.line);
        ++containedDiscards_;
        return;
    }
    // Modified copy: the only up-to-date data is gone for good.
    // Poison the line at its home (every future requester is fenced
    // with PoisonNack) and kill only the owning processor — the rest
    // of the machine computes on.
    const NodeId home = map_.homeOf(c.line);
    nodes_.at(home)->cc().markLineDead(c.line);
    nd.cacheUnit(c.unit).discardLine(c.line);
    nd.proc(c.unit).kill();
    ++linesDead_;
    ++procsKilled_;
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::ProcKill, f.node, c.line,
                            eq_.curTick());
    }
}

bool
IntegrityManager::lineQuietEverywhere(Addr line) const
{
    for (SmpNode *nd : nodes_) {
        if (!nd->cc().lineQuiet(line))
            return false;
        for (unsigned i = 0; i < nd->numProcs(); ++i) {
            if (nd->cacheUnit(i).missPendingOn(line))
                return false;
        }
    }
    return true;
}

void
IntegrityManager::scheduleScrub()
{
    if (scrubScheduled_)
        return;
    scrubScheduled_ = true;
    const Tick now = eq_.curTick();
    const Tick next = (now / scrubIntervalTicks + 1) * scrubIntervalTicks;
    eq_.scheduleFunction(
        [this] {
            scrubScheduled_ = false;
            scrubPass();
        },
        next, Event::defaultPriority, "integrity scrub");
}

void
IntegrityManager::scrubPass()
{
    for (SmpNode *nd : nodes_) {
        std::uint64_t c = nd->directory().scrubNow();
        for (unsigned i = 0; i < nd->numProcs(); ++i)
            c += nd->cacheUnit(i).scrubL2();
        scrubCorrections_ += c;
        if (c && tracer_) {
            tracer_->faultEvent(obs::FaultKind::ScrubCorrection,
                                nd->id(), 0, eq_.curTick());
        }
    }
}

void
IntegrityManager::finalScrub()
{
    scrubPass();
}

} // namespace ccnuma
