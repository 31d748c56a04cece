package experiments

import (
	"strings"
	"testing"
)

// smallStress keeps the race-enabled test suite fast while still crossing
// every interesting boundary: multiple shards, eviction pressure, several
// checkpoints, uneven events-per-shard split.
func smallStress() StressConfig {
	return StressConfig{
		Shards:      5,
		MeshSize:    16,
		Events:      1501,
		Checkpoints: 3,
		MaxResident: 2,
		BatchSize:   32,
		BaseSeed:    7,
	}
}

// The acceptance property: for a fixed seed the report is byte-identical
// at any client count and any eviction pressure.
func TestStressDeterministicAcrossClientsAndResidency(t *testing.T) {
	base := smallStress()
	base.Clients = 1
	ref, err := Stress(base)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.String()
	if !strings.Contains(want, "stress OK: 15 shard snapshots") {
		t.Fatalf("unexpected report:\n%s", want)
	}
	for _, variant := range []StressConfig{
		{Clients: 4},
		{Clients: 8, MaxResident: 1},
		{Clients: 3, MaxResident: 0}, // unlimited: no eviction at all
	} {
		cfg := smallStress()
		cfg.Clients = variant.Clients
		cfg.MaxResident = variant.MaxResident
		rep, err := Stress(cfg)
		if err != nil {
			t.Fatalf("clients=%d resident=%d: %v", cfg.Clients, cfg.MaxResident, err)
		}
		if got := rep.String(); got != want {
			t.Fatalf("report diverged at clients=%d resident=%d:\n--- want\n%s--- got\n%s",
				cfg.Clients, cfg.MaxResident, want, got)
		}
	}
}

// Eviction pressure must actually occur under a tight bound, and never
// under an unlimited one.
func TestStressEvictionPressure(t *testing.T) {
	cfg := smallStress()
	cfg.Clients = 2
	rep, err := Stress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops.Evictions == 0 || rep.Ops.Rebuilds == 0 {
		t.Fatalf("no eviction under MaxResident=%d: %+v", cfg.MaxResident, rep.Ops)
	}
	cfg.MaxResident = 0
	rep, err = Stress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops.Evictions != 0 {
		t.Fatalf("evictions without a residency bound: %+v", rep.Ops)
	}
}

func TestStressConfigValidation(t *testing.T) {
	for _, cfg := range []StressConfig{
		{},
		{Shards: 0, MeshSize: 16, Events: 100, Checkpoints: 1},
		{Shards: 2, MeshSize: 1, Events: 100, Checkpoints: 1},
		{Shards: 2, MeshSize: 16, Events: 100, Checkpoints: 0},
		// 16x16 warm-up is 2 faults per shard; 4 events over 2 shards
		// leaves no churn.
		{Shards: 2, MeshSize: 16, Events: 4, Checkpoints: 1},
		// Crash mode without a DataDir has nothing to recover from.
		{Shards: 2, MeshSize: 16, Events: 100, Checkpoints: 2, Crash: true},
	} {
		if _, err := Stress(cfg); err == nil {
			t.Fatalf("config accepted: %+v", cfg)
		}
	}
}

// The durability claim, end to end: a crash-mode run — kill/recover cycles
// with torn-tail injection between checkpoints — produces exactly the
// deterministic report a crash-free in-memory run does. Recovery is
// invisible in results, visible only in the crash counters.
func TestStressCrashRecoveryMatchesCrashFree(t *testing.T) {
	ref, err := Stress(smallStress())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallStress()
	cfg.Clients = 3
	cfg.DataDir = t.TempDir() + "/wal"
	cfg.CompactBytes = 2048 // force compactions mid-run
	cfg.Crash = true
	rep, err := Stress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 || rep.TornTails != rep.Crashes {
		t.Fatalf("crash schedule broken: crashes=%d torn_tails=%d", rep.Crashes, rep.TornTails)
	}
	if got, want := rep.String(), ref.String(); got != want {
		t.Fatalf("crash-mode report diverged from crash-free run:\n--- want\n%s--- got\n%s", want, got)
	}
	t.Logf("crashes=%d torn_tails=%d", rep.Crashes, rep.TornTails)
}

// Durable stress without the crash schedule is just a durable soak: it
// must pass verification and leave a recoverable namespace behind.
func TestStressDurableWithoutCrashes(t *testing.T) {
	cfg := smallStress()
	cfg.DataDir = t.TempDir() + "/wal"
	rep, err := Stress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 0 || rep.TornTails != 0 {
		t.Fatalf("crashes without Crash mode: %+v", rep)
	}
}

func TestDefaultStressMeetsAcceptanceScale(t *testing.T) {
	cfg := DefaultStress()
	if cfg.Shards < 20 || cfg.Events < 20000 {
		t.Fatalf("default stress below the acceptance floor: %+v", cfg)
	}
}

// The default scenario must reach the planner's merge path: some
// checkpoint holds a detour region made of several polygons, so the stress
// gate's planner check sees polygons of separate components joined.
func TestDefaultStressMergesPlannerRegions(t *testing.T) {
	cfg := DefaultStress()
	cfg.Clients = 2
	rep, err := Stress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range rep.Checkpoints {
		if cp.Regions < cp.Components {
			return
		}
	}
	t.Fatalf("no checkpoint merged polygons into one region:\n%s", rep)
}
