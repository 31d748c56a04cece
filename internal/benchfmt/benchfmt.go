// Package benchfmt defines the machine-readable benchmark record format
// emitted by `mfpsim -bench-json` (BENCH_sweep.json) and archived per-commit
// by CI, so the repository accumulates a performance trajectory that tooling
// can diff. The package only formats, parses and compares reports; timing
// is the caller's job.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Schema identifies the report layout; bump it on incompatible changes so
// regression tooling can refuse to compare apples to oranges.
const Schema = "repro/bench/v2"

// Record is one measured workload. Every workload runs on one worker.
type Record struct {
	// Name identifies the workload ("figure9/random/mesh100/trials30",
	// "mfp.Build/faults800", ...).
	Name string `json:"name"`
	// Iterations is how many times the workload ran; Seconds is the mean
	// wall-clock time of one run.
	Iterations int     `json:"iterations"`
	Seconds    float64 `json:"seconds"`
	// Unit is empty for wall-clock records (Seconds is seconds) and names
	// the measured quantity otherwise — e.g. "allocs/event" for allocation
	// counters. Non-time records are machine-independent already, so Diff
	// compares them unnormalized.
	Unit string `json:"unit,omitempty"`
}

// Report is the top-level BENCH_sweep.json document.
type Report struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CalibrationSeconds is the mean wall-clock time of one
	// CalibrationUnit run on the machine that produced the report. When
	// both sides of a Diff carry it, every wall-clock ratio is normalized
	// by the machines' calibration ratio, which is what lets a baseline
	// recorded on one machine gate runs on another at a tight tolerance.
	// Zero means the report predates calibration; Diff then compares raw
	// times, exactly as before the field existed.
	CalibrationSeconds float64  `json:"calibration_seconds,omitempty"`
	Records            []Record `json:"records"`
}

// New returns an empty report carrying the given environment stamp.
func New(goVersion string, gomaxprocs int) *Report {
	return &Report{Schema: Schema, GoVersion: goVersion, GOMAXPROCS: gomaxprocs}
}

// Add appends one record.
func (r *Report) Add(rec Record) { r.Records = append(r.Records, rec) }

// WriteJSON writes the report as indented JSON with a stable record order
// (sorted by Name, then Unit), so per-commit artifacts diff cleanly.
func (r *Report) WriteJSON(w io.Writer) error {
	sort.SliceStable(r.Records, func(i, j int) bool {
		if r.Records[i].Name != r.Records[j].Name {
			return r.Records[i].Name < r.Records[j].Name
		}
		return r.Records[i].Unit < r.Records[j].Unit
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON parses a report and rejects unknown schemas.
func ReadJSON(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("benchfmt: unknown schema %q (want %q)", r.Schema, Schema)
	}
	return &r, nil
}

// Regression describes one workload that got slower than the baseline
// report allows.
type Regression struct {
	Name string
	// Old and New are the baseline and current raw measurements (seconds,
	// or the record's Unit); Ratio is New/Old after calibration
	// normalization, so on wall-clock records it can differ from the raw
	// quotient when the reports came from different machines.
	Old, New, Ratio float64
	// Unit is the record's unit; empty means seconds.
	Unit string
}

// String renders the regression for CI logs.
func (g Regression) String() string {
	return fmt.Sprintf("%s: %s -> %s (%.2fx)",
		g.Name, formatMeasure(g.Old, g.Unit), formatMeasure(g.New, g.Unit), g.Ratio)
}

// Improvement describes one workload that got faster than the tolerance
// band — the mirror of Regression. Improvements never fail a gate, but a
// workload persistently below 1/tolerance means the committed baseline
// understates the code and should be re-recorded, or the next real
// regression hides inside the slack.
type Improvement struct {
	Name string
	// Old and New are the baseline and current raw measurements; Ratio is
	// New/Old after calibration normalization (< 1/tolerance by
	// construction).
	Old, New, Ratio float64
	// Unit is the record's unit; empty means seconds.
	Unit string
}

// String renders the improvement for CI logs.
func (im Improvement) String() string {
	return fmt.Sprintf("%s: %s -> %s (%.2fx)",
		im.Name, formatMeasure(im.Old, im.Unit), formatMeasure(im.New, im.Unit), im.Ratio)
}

// formatMeasure renders one raw measurement with its unit ("0.0042s",
// "0.06 allocs/event").
func formatMeasure(v float64, unit string) string {
	if unit == "" {
		return fmt.Sprintf("%.4fs", v)
	}
	return fmt.Sprintf("%.2f %s", v, unit)
}

// Skip reasons a (Name, Unit) pair can be excluded from the regression
// ratio with.
const (
	// SkipNoBaseline marks a current record with no baseline counterpart
	// (a new workload).
	SkipNoBaseline = "missing from baseline"
	// SkipRetired marks a baseline record with no current counterpart (a
	// retired workload).
	SkipRetired = "missing from current"
	// SkipZeroBaseline marks a pair whose baseline time is zero or
	// negative: the ratio would be Inf/NaN, so the pair is unusable until
	// the baseline is re-recorded.
	SkipZeroBaseline = "zero baseline time"
	// SkipZeroCurrent marks a pair whose current time is zero or negative
	// (a broken measurement, never a speedup).
	SkipZeroCurrent = "zero current time"
)

// Skip is one workload the comparison could not form a ratio for, with the
// reason. Skips are verdicts, not errors: new and retired workloads are
// expected across PRs, but tooling should surface them so a gate that
// silently compared nothing is visible.
type Skip struct {
	Name   string
	Reason string
}

// String renders the skip for CI logs.
func (s Skip) String() string {
	return fmt.Sprintf("%s: skipped: %s", s.Name, s.Reason)
}

// Comparison is the full verdict of diffing two reports: the workloads
// that regressed, the ones that improved past the mirror of the
// tolerance, and the ones no ratio could be formed for.
type Comparison struct {
	Regressions  []Regression
	Improvements []Improvement
	Skipped      []Skip
}

// Diff compares every (Name, Unit) pair across the two
// reports. Pairs present in both with positive measurements are
// ratio-checked against the tolerated slowdown (e.g. 1.25 for "fail when
// 25% slower"); ratios below the mirror band 1/tolerance are reported as
// Improvements (a sign the baseline should be re-recorded); every other
// pair — missing on either side, or carrying a zero/negative measurement
// that would make the ratio Inf/NaN — produces an explicit Skip verdict
// instead of being silently ignored. The one exception is a counter
// record whose baseline is zero: it holds while the count stays zero and
// regresses, with an infinite ratio, as soon as it does not.
//
// When both reports carry CalibrationSeconds, every wall-clock ratio
// (Unit == "") is multiplied by baseline.CalibrationSeconds /
// current.CalibrationSeconds — each side's times expressed in units of
// its own machine's calibration run — which cancels the machines' speed
// difference and leaves only the code's. Counter records are
// machine-independent and are never scaled.
func Diff(baseline, current *Report, tolerance float64) Comparison {
	scale := 1.0
	if baseline.CalibrationSeconds > 0 && current.CalibrationSeconds > 0 {
		scale = baseline.CalibrationSeconds / current.CalibrationSeconds
	}
	type key struct{ name, unit string }
	old := map[key]float64{}
	for _, rec := range baseline.Records {
		old[key{rec.Name, rec.Unit}] = rec.Seconds
	}
	var out Comparison
	seen := map[key]bool{}
	for _, rec := range current.Records {
		k := key{rec.Name, rec.Unit}
		seen[k] = true
		base, ok := old[k]
		switch {
		case !ok:
			out.Skipped = append(out.Skipped, Skip{Name: rec.Name, Reason: SkipNoBaseline})
		case base == 0 && rec.Unit != "":
			// A counter pinned at zero (an allocation-free path) has no
			// ratio to form: any count at all is the regression.
			if rec.Seconds > 0 {
				out.Regressions = append(out.Regressions,
					Regression{Name: rec.Name, Old: base, New: rec.Seconds, Ratio: math.Inf(1), Unit: rec.Unit})
			}
		case base <= 0:
			out.Skipped = append(out.Skipped, Skip{Name: rec.Name, Reason: SkipZeroBaseline})
		case rec.Seconds <= 0:
			out.Skipped = append(out.Skipped, Skip{Name: rec.Name, Reason: SkipZeroCurrent})
		default:
			ratio := rec.Seconds / base
			if rec.Unit == "" {
				ratio *= scale
			}
			switch {
			case ratio > tolerance:
				out.Regressions = append(out.Regressions,
					Regression{Name: rec.Name, Old: base, New: rec.Seconds, Ratio: ratio, Unit: rec.Unit})
			case ratio < 1/tolerance:
				out.Improvements = append(out.Improvements,
					Improvement{Name: rec.Name, Old: base, New: rec.Seconds, Ratio: ratio, Unit: rec.Unit})
			}
		}
	}
	for _, rec := range baseline.Records {
		if !seen[key{rec.Name, rec.Unit}] {
			out.Skipped = append(out.Skipped, Skip{Name: rec.Name, Reason: SkipRetired})
		}
	}
	return out
}

// CalibrationUnit runs one iteration of the fixed machine-calibration
// workload and returns a checksum (so the work cannot be optimized away).
// The workload is a seeded LCG feeding data-dependent loads over an
// L1-resident table — the integer-and-memory instruction mix of the mesh
// kernels with none of their code, so optimizing the kernels changes the
// workload ratios the gate inspects but never the yardstick they are
// normalized by. It must stay byte-for-byte stable across PRs: changing
// it silently re-scales every archived CalibrationSeconds.
func CalibrationUnit() uint64 {
	const tableSize = 1 << 12 // 32 KiB of uint64s: resident in any L1d
	var table [tableSize]uint64
	x := uint64(0x9E3779B97F4A7C15)
	for i := range table {
		x = x*6364136223846793005 + 1442695040888963407
		table[i] = x
	}
	var sum uint64
	idx := uint64(0)
	for i := 0; i < 1<<16; i++ {
		v := table[idx]
		sum += v ^ (v >> 29)
		idx = v % tableSize
	}
	return sum
}
