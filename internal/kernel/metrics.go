package kernel

// Engine metrics. Families are labeled by mesh dimension ("2", "3") so the
// 2-D and 3-D instantiations stay distinguishable on one /metrics page, and
// each engine resolves its per-dimension counters once at construction —
// the event hot path pays plain atomic adds, never a map lookup.

import (
	"repro/internal/obs"
)

var (
	metricEventsApplied = obs.Default.CounterVec("engine_events_applied_total",
		"State-changing fault events applied across all engines (duplicate adds and no-op clears excluded).", "dim")
	metricComponentsTouched = obs.Default.CounterVec("engine_components_touched_total",
		"Faulty components merged, split or created by event application.", "dim")
	metricClosures = obs.Default.CounterVec("engine_closures_total",
		"Orthogonal convex closure recomputations (one per touched component).", "dim")
	metricClosurePasses = obs.Default.CounterVec("engine_closure_passes_total",
		"Fill passes executed inside closure recomputations; passes per closure is the convergence depth of the paper's span-fill fixpoint.", "dim")
	metricPublishes = obs.Default.CounterVec("engine_snapshot_publishes_total",
		"Immutable snapshots published.", "dim")
	metricIndexVisits = obs.Default.CounterVec("engine_index_visits_total",
		"Component boxes examined by box-index queries (disabled-union repair, cuboid re-fill); per event it follows the components near the event, not the component count.", "dim")
)

// engineMetrics is one engine's pre-resolved instrument set.
type engineMetrics struct {
	eventsApplied     *obs.Counter
	componentsTouched *obs.Counter
	closures          *obs.Counter
	closurePasses     *obs.Counter
	publishes         *obs.Counter
	indexVisits       *obs.Counter
}

func newEngineMetrics(axes int) engineMetrics {
	// The dim label draws from a fixed vocabulary, not from formatting the
	// axis count: a formatted integer is an unbounded label value as far as
	// the metric surface is concerned (obslabels), and the registry keeps
	// every distinct value alive forever.
	var dim string
	switch axes {
	case 2:
		dim = "2"
	case 3:
		dim = "3"
	default:
		dim = "other"
	}
	return engineMetrics{
		eventsApplied:     metricEventsApplied.With(dim),
		componentsTouched: metricComponentsTouched.With(dim),
		closures:          metricClosures.With(dim),
		closurePasses:     metricClosurePasses.With(dim),
		publishes:         metricPublishes.With(dim),
		indexVisits:       metricIndexVisits.With(dim),
	}
}
