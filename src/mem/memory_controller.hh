/**
 * @file
 * Interleaved main-memory controller.
 *
 * The paper's nodes use interleaved memory whose controller is a
 * separate bus agent from the coherence controller. We model a set of
 * banks interleaved at line granularity; each access occupies its bank
 * for a fixed busy time, and data becomes available a fixed access
 * latency after the bank starts servicing the request. Contention
 * appears as bank queuing delay.
 */

#ifndef CCNUMA_MEM_MEMORY_CONTROLLER_HH
#define CCNUMA_MEM_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace ccnuma
{

/** Timing parameters for a node's memory system. */
struct MemoryParams
{
    unsigned numBanks = 4;
    /** Bank occupied per access (DRAM cycle time), in ticks. */
    Tick bankBusy = 24;
    /**
     * Address strobe to start of data transfer with an idle bank
     * (Table 1: 20 compute-processor cycles).
     */
    Tick accessLatency = 20;
};

/**
 * Bank-interleaved memory timing model. The bus asks it when a read's
 * data transfer can start; writes are posted.
 */
class MemoryController
{
  public:
    MemoryController(const std::string &name, const MemoryParams &p,
                     unsigned line_bytes);

    /**
     * Schedule a line read beginning no earlier than @p earliest
     * (the address strobe time).
     * @return the tick at which the data transfer may start.
     */
    Tick scheduleRead(Addr line_addr, Tick earliest);

    /**
     * Post a line write arriving at @p when (e.g. writeback data).
     * @return the tick at which the bank accepted the write.
     */
    Tick scheduleWrite(Addr line_addr, Tick when);

    /**
     * Checker payload: the version of the data currently held in
     * memory for @p line_addr (0 if never written).
     */
    std::uint64_t
    version(Addr line_addr) const
    {
        auto it = versions_.find(line_addr);
        return it == versions_.end() ? 0 : it->second;
    }

    /** Checker payload: record @p v as the memory contents. */
    void
    setVersion(Addr line_addr, std::uint64_t v)
    {
        versions_[line_addr] = v;
    }

    /**
     * All recorded line versions (degraded-mode migration copies a
     * dead home's memory image to its successor).
     */
    const std::unordered_map<Addr, std::uint64_t> &versions() const
    {
        return versions_;
    }

    stats::Group &statGroup() { return statGroup_; }

    stats::Scalar statReads{"reads", "line reads serviced"};
    stats::Scalar statWrites{"writes", "line writes serviced"};
    stats::Average statBankWait{"bank_wait",
        "ticks a request waited for a busy bank"};

  private:
    std::size_t bankIndex(Addr line_addr) const;

    MemoryParams params_;
    unsigned lineShift_;
    std::vector<Tick> bankFreeAt_;
    std::unordered_map<Addr, std::uint64_t> versions_;
    stats::Group statGroup_;
};

} // namespace ccnuma

#endif // CCNUMA_MEM_MEMORY_CONTROLLER_HH
