#include "node/smp_node.hh"

#include <unordered_map>
#include <utility>

namespace ccnuma
{

SmpNode::SmpNode(const std::string &name, EventQueue &eq, NodeId id,
                 const NodeParams &p, FaultTolerance level,
                 Network &net, AddressMap &map, SyncManager &sync,
                 std::function<std::uint64_t()> next_version)
    : id_(id)
{
    bus_ = std::make_unique<Bus>(name + ".bus", eq, p.bus, p.lineBytes);
    mem_ = std::make_unique<MemoryController>(name + ".mem", p.mem,
                                              p.lineBytes);
    dir_ = std::make_unique<DirectoryStore>(name + ".dir", p.dir,
                                            p.lineBytes);
    bus_->setMemory(mem_.get());

    cc_ = std::make_unique<CoherenceController>(
        name + ".cc", eq, id, p.cc, level, *bus_, net, map, *dir_);
    cc_->setProbe(this);
    cc_->setMemory(mem_.get());

    for (unsigned i = 0; i < p.procsPerNode; ++i) {
        std::string cname =
            name + ".cpu" + std::to_string(i);
        caches_.push_back(std::make_unique<CacheUnit>(
            cname + ".cache", eq, *bus_, map, id, p.cache,
            next_version));
        ProcId pid =
            id * p.procsPerNode + i; // global numbering by node
        procs_.push_back(std::make_unique<Processor>(
            cname, eq, pid, id, *caches_.back(), sync, p.proc));
    }

    if (level >= FaultTolerance::Recovery) {
        // Stuck-miss escalation: each cache unit's per-miss timer
        // drives the controller's retry/probe/degraded ladder.
        for (auto &c : caches_) {
            c->setMissTimeoutHook(
                CoherenceController::missTimeoutTicks,
                [this](Addr line) { cc_->missTimeout(line); });
        }
        // Directory reconstruction: a recovering peer probes us for
        // every local copy of a line homed there. The controller's
        // own writeback buffer is scanned separately; here we report
        // cache and cache-writeback-buffer copies.
        AddressMap *amap = &map;
        cc_->setCacheScan(
            [this, amap](NodeId home,
                         const std::function<void(
                             Addr, bool, std::uint64_t)> &emit) {
                // One response per line, dirty dominating: collapse
                // per-processor copies so the rebuilding home is not
                // told about the same line twice.
                std::unordered_map<Addr, std::pair<bool,
                                                   std::uint64_t>>
                    seen;
                auto note = [&](Addr line, bool dirty,
                                std::uint64_t ver) {
                    if (amap->homeOf(line) != home)
                        return;
                    auto [it, inserted] = seen.try_emplace(
                        line, std::make_pair(dirty, ver));
                    if (!inserted && dirty)
                        it->second = {true, ver};
                };
                for (const auto &c : caches_) {
                    c->l2().forEachLine([&](const CacheLine &l) {
                        note(l.lineAddr,
                             l.state == LineState::Modified,
                             l.version);
                    });
                    // Evicted Modified lines still in the cache-level
                    // writeback buffer are the line's only copy:
                    // report them as dirty so the rebuilt entry
                    // matches the WriteBack that is about to arrive.
                    c->forEachWb([&](Addr line, std::uint64_t ver) {
                        note(line, true, ver);
                    });
                }
                for (const auto &[line, v] : seen)
                    emit(line, v.first, v.second);
            });
    }
}

bool
SmpNode::lineCachedLocally(Addr line_addr) const
{
    for (const auto &c : caches_) {
        if (c->hasLine(line_addr))
            return true;
    }
    return false;
}

bool
SmpNode::lineModifiedLocally(Addr line_addr) const
{
    for (const auto &c : caches_) {
        const CacheLine *l = c->l2().findLine(line_addr);
        if (l && l->state == LineState::Modified)
            return true;
    }
    return false;
}

} // namespace ccnuma
