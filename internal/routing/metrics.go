package routing

// Routing-plane metrics. Route outcomes are pre-resolved counters keyed by
// disposition — the classification mirrors mfpd's error-to-status mapping,
// so an operator can line up routing_routes_total{outcome} with the HTTP
// status classes on /meshes/{name}/route.

import (
	"errors"
	"time"

	"repro/internal/obs"
)

var (
	metricPlannerBuilds = obs.Default.Counter("routing_planner_builds_total",
		"Planner constructions (snapshot preparation for route serving), process-wide.")
	metricPlannerBuildSeconds = obs.Default.Histogram("routing_planner_build_seconds",
		"Planner construction latency in seconds.", obs.LatencyBuckets)
	metricPlannerRegionsReused = obs.Default.Counter("routing_planner_regions_reused_total",
		"Detour regions a planner build took unchanged, with their rings, from the previous planner.")
	metricPlannerRegionsBuilt = obs.Default.Counter("routing_planner_regions_built_total",
		"Detour regions a planner build merged and traced a boundary ring for.")
	metricRoutes = obs.Default.CounterVec("routing_routes_total",
		"Route computations by disposition: ok, blocked_endpoint, border_region, hop_budget, or rejected (malformed query or internal failure).",
		"outcome")

	routeOutcomeOK       = metricRoutes.With("ok")
	routeOutcomeBlocked  = metricRoutes.With("blocked_endpoint")
	routeOutcomeBorder   = metricRoutes.With("border_region")
	routeOutcomeBudget   = metricRoutes.With("hop_budget")
	routeOutcomeRejected = metricRoutes.With("rejected")
)

// observeBuild records one planner construction that began at start,
// kept reused regions from a predecessor and built the rest.
func observeBuild(start time.Time, reused, built int) {
	metricPlannerBuilds.Inc()
	metricPlannerRegionsReused.Add(uint64(reused))
	metricPlannerRegionsBuilt.Add(uint64(built))
	metricPlannerBuildSeconds.ObserveDuration(time.Since(start))
}

// routeOutcome classifies a Route error into its outcome counter.
func routeOutcome(err error) *obs.Counter {
	switch {
	case err == nil:
		return routeOutcomeOK
	case errors.Is(err, ErrBlockedEndpoint):
		return routeOutcomeBlocked
	case errors.Is(err, ErrBorderRegion):
		return routeOutcomeBorder
	case errors.Is(err, ErrHopBudget):
		return routeOutcomeBudget
	}
	return routeOutcomeRejected
}
