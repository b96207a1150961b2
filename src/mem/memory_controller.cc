#include "mem/memory_controller.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace ccnuma
{

MemoryController::MemoryController(const std::string &name,
                                   const MemoryParams &p,
                                   unsigned line_bytes)
    : params_(p), statGroup_(name)
{
    if (p.numBanks == 0)
        fatal("memory %s: need at least one bank", name.c_str());
    if (!std::has_single_bit(line_bytes))
        fatal("memory %s: line size must be a power of two",
              name.c_str());
    lineShift_ = std::countr_zero(line_bytes);
    bankFreeAt_.assign(p.numBanks, 0);

    statGroup_.add(&statReads);
    statGroup_.add(&statWrites);
    statGroup_.add(&statBankWait);
}

std::size_t
MemoryController::bankIndex(Addr line_addr) const
{
    return (line_addr >> lineShift_) % params_.numBanks;
}

Tick
MemoryController::scheduleRead(Addr line_addr, Tick earliest)
{
    Tick &free_at = bankFreeAt_[bankIndex(line_addr)];
    Tick begin = std::max(earliest, free_at);
    statBankWait.sample(static_cast<double>(begin - earliest));
    free_at = begin + params_.bankBusy;
    ++statReads;
    return begin + params_.accessLatency;
}

Tick
MemoryController::scheduleWrite(Addr line_addr, Tick when)
{
    Tick &free_at = bankFreeAt_[bankIndex(line_addr)];
    Tick begin = std::max(when, free_at);
    statBankWait.sample(static_cast<double>(begin - when));
    free_at = begin + params_.bankBusy;
    ++statWrites;
    return begin;
}

} // namespace ccnuma
