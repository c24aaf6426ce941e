/**
 * @file
 * High-availability manager: host crash and recovery workflows.
 *
 * A host failure is a management-plane event twice over: the crash
 * itself (state cleanup for every resident VM) and — worse — the
 * recovery boot storm, when the reconnected host's VMs all power on
 * through the control plane at once.  HA restart load is one of the
 * "previously infrequent operations" that cloud scale turns routine.
 * Crashes are driven by the chaos engine's crash lanes (chaos.hh),
 * including the --mtbf failure injector (failures.hh), or by hand.
 */

#ifndef VCP_CLOUD_HA_MANAGER_HH
#define VCP_CLOUD_HA_MANAGER_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "controlplane/management_server.hh"

namespace vcp {

/** Crash/recovery orchestration for hosts. */
class HaManager
{
  public:
    explicit HaManager(ManagementServer &server);

    HaManager(const HaManager &) = delete;
    HaManager &operator=(const HaManager &) = delete;

    /**
     * Crash a host immediately: every powered-on resident VM is
     * forced off (its host commitment released), and the host is
     * disconnected.  The crashed VM set is remembered for restart.
     * @return number of VMs that went down.
     */
    std::size_t crashHost(HostId host);

    /**
     * Recover a crashed host: reconnect it through an AddHost
     * operation (the expensive resync), then power the remembered
     * VMs back on — the boot storm.  @p done receives true when the
     * host reconnected and every restart attempt resolved (even if
     * some restarts failed for capacity reasons).
     */
    void recoverHost(HostId host, std::function<void(bool)> done = {});

    /** True if the host is currently marked crashed. */
    bool isCrashed(HostId host) const
    {
        return crashed.count(host) > 0;
    }

    /** The server the workflows run on (the failure injector's
     *  one-lane chaos scenario targets it). */
    ManagementServer &server() { return srv; }

    /** @{ Lifetime counters. */
    std::uint64_t crashes() const { return crash_count; }
    std::uint64_t vmsCrashed() const { return vms_crashed; }
    std::uint64_t vmsRestarted() const { return vms_restarted; }
    std::uint64_t restartFailures() const { return restart_failures; }
    /** @} */

  private:
    ManagementServer &srv;
    Inventory &inv;
    StatRegistry &stats;

    /** Host -> VMs that were powered on when it crashed. */
    std::unordered_map<HostId, std::vector<VmId>> crashed;

    std::uint64_t crash_count = 0;
    std::uint64_t vms_crashed = 0;
    std::uint64_t vms_restarted = 0;
    std::uint64_t restart_failures = 0;

    /** @{ Resolve-once stat handles. */
    Counter *crashes_stat = nullptr;
    Counter *vms_crashed_stat = nullptr;
    Counter *vms_restarted_stat = nullptr;
    Counter *restart_fail_stat = nullptr;
    /** @} */
};

} // namespace vcp

#endif // VCP_CLOUD_HA_MANAGER_HH
