package shard_test

import (
	"testing"

	"repro/internal/experiments"
)

// BenchmarkRecover times a restart on each e2ebench churn layout:
// Manager.Recover of a prepared data directory (snapshot decode, log tail
// replay, engine build) plus the mesh's first Read. Closing the manager
// is not timed.
func BenchmarkRecover(b *testing.B) {
	for _, cfg := range experiments.RestartLayouts() {
		b.Run(cfg.Name, func(b *testing.B) {
			dir := b.TempDir()
			if err := cfg.Prepare(dir); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mgr, err := experiments.Restart(dir, cfg.Name)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				mgr.Close()
				b.StartTimer()
			}
		})
	}
}
