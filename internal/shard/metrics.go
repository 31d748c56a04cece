package shard

// Process-wide shard-layer metrics. Per-mesh numbers stay on the
// /meshes/{name}/stats endpoint (obs cardinality discipline: no mesh-name
// labels); these families aggregate across every shard and Manager in the
// process, which is why gauges move by deltas that mirror the Manager's
// maps rather than being Set from any one Manager's point of view.

import "repro/internal/obs"

var shardMetrics = struct {
	requests       *obs.Counter
	eventsReceived *obs.Counter
	eventsApplied  *obs.Counter
	batches        *obs.Counter
	batchEvents    *obs.Histogram
	batchRequests  *obs.Histogram
	evictions      *obs.Counter
	rebuilds       *obs.Counter
	rebuildSeconds *obs.Histogram
	failures       *obs.Counter
	routeQueries   *obs.Counter
	plannerHits    *obs.Counter
	plannerBuilds  *obs.Counter
	meshes         *obs.Gauge
	resident       *obs.Gauge
	// fragmentsReused and fragmentsEncoded split the polygons reply's
	// per-component fragments by how Shard.PolygonsBody produced them.
	fragmentsReused  *obs.Counter
	fragmentsEncoded *obs.Counter
}{
	requests: obs.Default.Counter("shard_requests_total",
		"Event submissions processed by shard mailboxes (including rejected ones)."),
	eventsReceived: obs.Default.Counter("shard_events_received_total",
		"Events carried by valid submissions, including duplicates the engine later ignores."),
	eventsApplied: obs.Default.Counter("shard_events_applied_total",
		"Events that changed shard state (the sum of all shard version advances)."),
	batches: obs.Default.Counter("shard_batches_total",
		"Coalesced engine batches (engine.Apply calls made on behalf of submissions)."),
	batchEvents: obs.Default.Histogram("shard_batch_events",
		"Events per coalesced engine batch.", obs.SizeBuckets),
	batchRequests: obs.Default.Histogram("shard_batch_requests",
		"Submissions coalesced into one engine batch.", obs.SizeBuckets),
	evictions: obs.Default.Counter("shard_evictions_total",
		"LRU engine evictions across all shards."),
	rebuilds: obs.Default.Counter("shard_rebuilds_total",
		"Engine rebuilds from the persisted fault set after eviction."),
	rebuildSeconds: obs.Default.Histogram("shard_rebuild_seconds",
		"Engine rebuild latency in seconds (replay of the persisted fault set).", obs.LatencyBuckets),
	failures: obs.Default.Counter("shard_failures_total",
		"Shard failure latches (engine divergence or rebuild error); each permanently fails one shard."),
	routeQueries: obs.Default.Counter("shard_route_queries_total",
		"Planner lookups made on behalf of route queries."),
	plannerHits: obs.Default.Counter("shard_planner_cache_hits_total",
		"Planner lookups served by the per-version memoized planner."),
	plannerBuilds: obs.Default.Counter("shard_planner_builds_total",
		"Planner constructions forced by cache misses (fault churn or eviction)."),
	meshes: obs.Default.Gauge("shard_meshes",
		"Meshes currently hosted (resident or evicted)."),
	resident: obs.Default.Gauge("shard_resident_engines",
		"Shards whose engine is currently in memory."),
	fragmentsReused:  polygonsFragments.With("reused"),
	fragmentsEncoded: polygonsFragments.With("encoded"),
}

// polygonsFragments counts the polygons reply's per-component fragments
// by outcome: reused (copied from the previous version's memoized body)
// or encoded. It carries the daemon's prefix because it describes a /v1
// reply; the shard is where the reuse decision is made.
var polygonsFragments = obs.Default.CounterVec("mfpd_polygons_fragments_total",
	"Per-component fragments of polygons replies built at a new version, by outcome: reused (copied from the previous memoized body) or encoded.",
	"outcome")
