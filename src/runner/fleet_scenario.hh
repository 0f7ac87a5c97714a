/**
 * @file
 * Runner wiring for the multi-tenant fleet workload (src/fleet): its
 * flag table, the fleet system configuration (thousands of saved-state
 * slots, right-sized mapping lists, zombie reaping, checkpoint storms,
 * optional memory pressure), and the churn-driving Scenario whose
 * drive loop respawns exited tenants through the crash-consistent
 * spawn/exit paths.
 */

#ifndef KINDLE_RUNNER_FLEET_SCENARIO_HH
#define KINDLE_RUNNER_FLEET_SCENARIO_HH

#include "fleet/fleet.hh"
#include "runner/options.hh"
#include "runner/scenario.hh"

namespace kindle::runner
{

/** The fleet_storm knobs, on top of the common runner set. */
struct FleetOptions
{
    fleet::FleetParams params;

    /** Arm the memory-pressure machinery (reclaim + OOM) so the
     *  fleet's demand genuinely exceeds the zones. */
    bool pressure = true;

    /** Checkpoint storm period (0 = persistence disabled). */
    Tick checkpointInterval = 2 * oneMs;
};

/** The fleet_storm rows (--tenants, --churn, ...), writing into
 *  @p opts; pass them to runner::parseOptions. */
FlagTable fleetFlags(FleetOptions &opts);

/**
 * A KindleConfig sized for the fleet: saved-state slots for every
 * concurrent tenant (plus headroom), mapping lists sized to the
 * largest tenant heap instead of the historical per-process 4 MiB,
 * zombie reaping on, short timeslices, periodic checkpoints, and —
 * unless disabled — a pressure plan that reclaim and the OOM killer
 * must work against at steady state.
 */
KindleConfig makeFleetConfig(const FleetOptions &opts, unsigned cores);

/**
 * The churning fleet scenario: spawn the initial fleet, then run in
 * scheduler-epoch slices, replacing exited tenants with fresh-ordinal
 * respawns until the churn budget drains and the fleet empties.
 * Exports fleet.* stats (spawns, churn spawns, peak live population,
 * request/read/write counts) through the extra snapshot.
 */
Scenario makeFleetScenario(std::string name, Axes axes,
                           const FleetOptions &opts, unsigned cores);

} // namespace kindle::runner

#endif // KINDLE_RUNNER_FLEET_SCENARIO_HH
