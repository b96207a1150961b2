/**
 * @file
 * The machine's fault-tolerance level: how much fault handling is
 * layered around the paper's protocol.
 *
 * The levels nest: each one arms everything the level below it arms.
 * None is the paper's machine (a NACKed request is retried at once
 * and without bound). Transport adds the reliable transport under the
 * protocol and bounds the NACK retry with capped exponential backoff.
 * Recovery adds fail-stop crash recovery: per-miss timers with their
 * escalation ladder, controller restart and directory rebuild.
 * Integrity adds CRC-32 frames, SECDED ECC scrubbing and line
 * poisoning. Every tuning value of these subsystems is a named
 * constant beside the code that reads it.
 */

#ifndef CCNUMA_SIM_FAULT_TOLERANCE_HH
#define CCNUMA_SIM_FAULT_TOLERANCE_HH

#include <cstdint>

namespace ccnuma
{

/** Fault handling armed around the protocol; higher levels nest. */
enum class FaultTolerance : std::uint8_t
{
    None,      ///< the paper's machine
    Transport, ///< + reliable transport, bounded NACK retry
    Recovery,  ///< + miss timers, controller restart, dir rebuild
    Integrity, ///< + CRC frames, ECC scrubbing, line poisoning
};

inline const char *
faultToleranceName(FaultTolerance level)
{
    switch (level) {
      case FaultTolerance::None: return "none";
      case FaultTolerance::Transport: return "transport";
      case FaultTolerance::Recovery: return "recovery";
      case FaultTolerance::Integrity: return "integrity";
    }
    return "?";
}

} // namespace ccnuma

#endif // CCNUMA_SIM_FAULT_TOLERANCE_HH
