/**
 * @file
 * Fail-stop crash orchestration (PR 6).
 *
 * The RecoveryManager turns the CrashFault list in the fault config
 * into scheduled events against the live machine:
 *
 *  - at each fault's tick it fail-stops the named coherence
 *    controller (CoherenceController::crash), dropping all in-flight
 *    handler state and optionally the directory SRAM;
 *  - CoherenceController::repairTicks later it restarts a
 *    non-permanent crash (CoherenceController::restart), which
 *    replays parked work or — when the directory was lost — enters
 *    the RECOVERING epoch and rebuilds the full map from DirProbe
 *    responses;
 *  - when a *permanent* crash makes requesters exhaust their
 *    miss-timeout escalation ladder, the controllers' degraded hook
 *    lands here and the manager migrates the dead home: dirty data is
 *    flushed to the surviving memory images, the dead node's memory
 *    image and (cache-derived) directory move to a successor node,
 *    the dead node's processors are killed and its pairs fenced for
 *    good, and the address map remaps the dead pages so survivors
 *    finish the workload against the successor.
 *
 * The manager also wires the recovery hooks: the transport's
 * pair-dead deferral (a crashed destination is being repaired, keep
 * retransmitting), the controllers' degraded hook, and — when the
 * invariant checker is on — the line-by-line cross-check of every
 * rebuilt directory.
 */

#ifndef CCNUMA_RECOVERY_RECOVERY_MANAGER_HH
#define CCNUMA_RECOVERY_RECOVERY_MANAGER_HH

#include <cstdint>
#include <vector>

#include "mem/address_map.hh"
#include "node/smp_node.hh"
#include "sim/event_queue.hh"
#include "verify/fault_config.hh"

namespace ccnuma
{

class CoherenceChecker;
class FaultInjector;
class ReliableTransport;

/** Crash scheduling + degraded-mode migration (see file comment). */
class RecoveryManager
{
  public:
    /**
     * @param xport may be null only when no crash faults are armed
     * @param injector source of the CrashFault list (may be null:
     *        recovery machinery armed but no faults scheduled)
     * @param checker cross-checks rebuilt directories when non-null
     */
    RecoveryManager(EventQueue &eq, AddressMap &map,
                    std::vector<SmpNode *> nodes,
                    ReliableTransport *xport, FaultInjector *injector,
                    CoherenceChecker *checker);

    /** Install the hooks and schedule every configured crash. */
    void arm();

    /** True once @p n has been migrated away from (degraded mode). */
    bool nodeDead(NodeId n) const { return dead_.at(n) != 0; }

    /** The node that inherited @p dead's pages. */
    NodeId successorOf(NodeId dead) const;

    // --- counters (RunResult / tests) ---
    std::uint64_t crashesFired() const { return crashesFired_; }
    std::uint64_t restartsFired() const { return restartsFired_; }
    std::uint64_t migrations() const { return migrations_; }

  private:
    void fireCrash(const CrashFault &f);
    void fireRestart(NodeId node);
    /** Degraded hook target: defer the migration to its own event. */
    void scheduleMigration(NodeId dead);
    void migrate(NodeId dead);

    EventQueue &eq_;
    AddressMap &map_;
    std::vector<SmpNode *> nodes_;
    ReliableTransport *xport_;
    FaultInjector *injector_;
    CoherenceChecker *checker_;
    std::vector<char> dead_;
    std::vector<char> migrationPending_;
    std::uint64_t crashesFired_ = 0;
    std::uint64_t restartsFired_ = 0;
    std::uint64_t migrations_ = 0;
};

} // namespace ccnuma

#endif // CCNUMA_RECOVERY_RECOVERY_MANAGER_HH
