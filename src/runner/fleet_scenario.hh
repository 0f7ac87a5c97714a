/**
 * @file
 * Runner wiring for the multi-tenant fleet workload (src/fleet): the
 * fleet system configuration (thousands of saved-state slots,
 * right-sized mapping lists, checkpoint storms, memory pressure), and the churn-driving Scenario whose drive loop respawns
 * exited tenants through the crash-consistent spawn/exit paths.  The
 * fleet_storm experiment row (bench/experiments.cc) sweeps it.
 */

#ifndef KINDLE_RUNNER_FLEET_SCENARIO_HH
#define KINDLE_RUNNER_FLEET_SCENARIO_HH

#include "fleet/fleet.hh"
#include "runner/scenario.hh"

namespace kindle::runner
{

/** The fleet a scenario runs. */
struct FleetOptions
{
    fleet::FleetParams params;
};

/**
 * A KindleConfig sized for the fleet: saved-state slots for every
 * concurrent tenant (plus headroom), mapping lists sized to the
 * largest tenant heap instead of the historical per-process 4 MiB,
 * short timeslices, 2 ms rebuild checkpoints, and a
 * pressure plan that reclaim and the OOM killer must work against at
 * steady state.
 */
KindleConfig makeFleetConfig(const FleetOptions &opts, unsigned cores);

/**
 * The churning fleet scenario: spawn the initial fleet, then run in
 * scheduler-epoch slices, replacing exited tenants with fresh-ordinal
 * respawns until the churn budget drains and the fleet empties.
 * Exports fleet.* stats (spawns, churn spawns, peak live population,
 * request/read/write counts) through the extra snapshot.  The point
 * owns its core count: it runs on @p cores whatever --cores says.
 */
Scenario makeFleetScenario(std::string name, Axes axes,
                           const FleetOptions &opts, unsigned cores);

} // namespace kindle::runner

#endif // KINDLE_RUNNER_FLEET_SCENARIO_HH
