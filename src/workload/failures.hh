/**
 * @file
 * Failure injector: random host outages against a running cloud.
 *
 * Outage arrivals are Poisson across the whole plant (mean time
 * between failures), outage durations are exponential, and recovery
 * runs the HA boot-storm workflow.  The injector is a one-lane chaos
 * scenario (chaos.hh): a single crash lane drawing gaps, victims and
 * outages from the stream it is handed, unforked, so --mtbf runs keep
 * the RNG call order they always had.  NOTE: the lane re-arms itself
 * indefinitely — drive such simulations with runUntil().
 */

#ifndef VCP_WORKLOAD_FAILURES_HH
#define VCP_WORKLOAD_FAILURES_HH

#include <cstdint>

#include "workload/chaos.hh"

namespace vcp {

/** Failure-injection parameters. */
struct FailureConfig
{
    /** Mean time between host failures, cloud-wide; <= 0 disables. */
    SimDuration mtbf = hours(12);

    /** Mean outage duration before recovery begins. */
    SimDuration outage_mean = minutes(15);
};

/** Drives random host crash/recovery cycles through an HaManager. */
class FailureInjector : public ChaosEngine
{
  public:
    /**
     * @param ha crash/recovery workflows.
     * @param cfg failure parameters.
     * @param rng private random stream, drawn from directly.
     */
    FailureInjector(HaManager &ha, const FailureConfig &cfg, Rng rng)
        : ChaosEngine(ha.server(), ha, crashScenario(cfg), rng, false)
    {}

    std::uint64_t outages() const { return crashes().injected; }
    std::uint64_t recoveries() const { return crashes().recovered; }

  private:
    /** One crash lane, or none when @p cfg disables failures. */
    static ChaosConfig
    crashScenario(const FailureConfig &cfg)
    {
        ChaosConfig c;
        if (cfg.mtbf > 0)
            c.faults.push_back(
                {FaultFamily::HostCrash, cfg.mtbf, cfg.outage_mean});
        return c;
    }

    const FamilyStats &crashes() const
    {
        return familyStats(FaultFamily::HostCrash);
    }
};

} // namespace vcp

#endif // VCP_WORKLOAD_FAILURES_HH
