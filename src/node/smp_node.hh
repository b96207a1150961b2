/**
 * @file
 * An SMP node: compute processors with private L1/L2 caches, a split-
 * transaction snooping bus, an interleaved memory controller, the
 * node's slice of the directory, and the coherence controller
 * (Figure 1 of the paper).
 */

#ifndef CCNUMA_NODE_SMP_NODE_HH
#define CCNUMA_NODE_SMP_NODE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bus/bus.hh"
#include "cc/coherence_controller.hh"
#include "directory/directory.hh"
#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "net/network.hh"
#include "node/cache_unit.hh"
#include "node/processor.hh"
#include "node/sync.hh"
#include "sim/event_queue.hh"
#include "sim/fault_tolerance.hh"

namespace ccnuma
{

/** Per-node configuration bundle. */
struct NodeParams
{
    unsigned procsPerNode = 4;
    /**
     * Cache line size (Table 1: 128 bytes), the one home of the
     * coherence unit every node component shares: bus transfers,
     * memory and directory interleave, and both cache levels.
     */
    unsigned lineBytes = 128;
    BusParams bus;
    MemoryParams mem;
    DirectoryParams dir;
    CcParams cc;
    CacheUnitParams cache;
    ProcessorParams proc;
};

/** One SMP node of the CC-NUMA machine. */
class SmpNode : public LocalCacheProbe
{
  public:
    SmpNode(const std::string &name, EventQueue &eq, NodeId id,
            const NodeParams &p, FaultTolerance level,
            Network &net, AddressMap &map, SyncManager &sync,
            std::function<std::uint64_t()> next_version);

    NodeId id() const { return id_; }
    Bus &bus() { return *bus_; }
    MemoryController &memory() { return *mem_; }
    DirectoryStore &directory() { return *dir_; }
    CoherenceController &cc() { return *cc_; }

    unsigned numProcs() const
    {
        return static_cast<unsigned>(procs_.size());
    }
    Processor &proc(unsigned i) { return *procs_.at(i); }
    CacheUnit &cacheUnit(unsigned i) { return *caches_.at(i); }

    // --- LocalCacheProbe ---
    bool lineCachedLocally(Addr line_addr) const override;
    bool lineModifiedLocally(Addr line_addr) const override;

  private:
    NodeId id_;
    std::unique_ptr<Bus> bus_;
    std::unique_ptr<MemoryController> mem_;
    std::unique_ptr<DirectoryStore> dir_;
    std::unique_ptr<CoherenceController> cc_;
    std::vector<std::unique_ptr<CacheUnit>> caches_;
    std::vector<std::unique_ptr<Processor>> procs_;
};

} // namespace ccnuma

#endif // CCNUMA_NODE_SMP_NODE_HH
