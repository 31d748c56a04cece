package benchfmt

import (
	"math"
	"strings"
	"testing"
)

func sample() *Report {
	r := New("go1.21", 1)
	r.Add(Record{Name: "mfp.Build", Iterations: 10, Seconds: 0.1})
	r.Add(Record{Name: "figure9/random", Iterations: 1, Seconds: 2.0, Unit: "rounds"})
	r.Add(Record{Name: "figure9/random", Iterations: 1, Seconds: 0.5})
	return r
}

func TestRoundTripAndStableOrder(t *testing.T) {
	r := sample()
	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "workers") || strings.Contains(buf.String(), "speedup") {
		t.Fatalf("report carries a retired field:\n%s", buf.String())
	}
	got, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.GOMAXPROCS != 1 || len(got.Records) != 3 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// WriteJSON sorts by (name, unit) so artifacts diff cleanly.
	if got.Records[0].Unit != "" || got.Records[1].Unit != "rounds" || got.Records[2].Name != "mfp.Build" {
		t.Fatalf("records not in canonical order: %+v", got.Records)
	}
	var buf2 strings.Builder
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("WriteJSON is not deterministic")
	}
}

func TestReadJSONRejectsForeignSchema(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"schema":"other/v9","records":[]}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestDiffTolerance: a ratio inside the tolerance is no verdict, one past
// it is a regression carrying the exact ratio, and a looser tolerance
// lets the same pair through.
func TestDiffTolerance(t *testing.T) {
	base := New("go1.21", 1)
	base.Add(Record{Name: "a", Seconds: 1.0})
	base.Add(Record{Name: "b", Seconds: 1.0})

	cur := New("go1.21", 1)
	cur.Add(Record{Name: "a", Seconds: 1.1}) // within tolerance
	cur.Add(Record{Name: "b", Seconds: 2.0}) // regression

	got := Diff(base, cur, 1.25)
	if len(got.Regressions) != 1 || got.Regressions[0].Name != "b" {
		t.Fatalf("regressions %+v, want exactly b", got.Regressions)
	}
	if got.Regressions[0].Ratio != 2.0 {
		t.Fatalf("ratio %v, want 2.0", got.Regressions[0].Ratio)
	}
	if s, want := got.Regressions[0].String(), "b: 1.0000s -> 2.0000s (2.00x)"; s != want {
		t.Fatalf("regression string %q, want %q", s, want)
	}
	if rs := Diff(base, cur, 2.5).Regressions; len(rs) != 0 {
		t.Fatalf("loose tolerance still flagged %+v", rs)
	}
}

// TestDiffSkipVerdicts: one-sided records and zero times must yield
// explicit skip verdicts — never a silent omission, an Inf ratio or a
// spurious regression.
func TestDiffSkipVerdicts(t *testing.T) {
	base := New("go1.21", 1)
	base.Add(Record{Name: "steady", Seconds: 1.0})
	base.Add(Record{Name: "retired", Seconds: 1.0})
	base.Add(Record{Name: "zero-base", Seconds: 0})
	base.Add(Record{Name: "zero-cur", Seconds: 1.0})

	cur := New("go1.21", 1)
	cur.Add(Record{Name: "steady", Seconds: 1.0})
	cur.Add(Record{Name: "zero-base", Seconds: 5.0})
	cur.Add(Record{Name: "zero-cur", Seconds: 0})
	cur.Add(Record{Name: "fresh", Seconds: 3.0})

	got := Diff(base, cur, 1.25)
	if len(got.Regressions) != 0 {
		t.Fatalf("nothing regressed, got %+v", got.Regressions)
	}
	for _, g := range got.Regressions {
		if math.IsInf(g.Ratio, 0) || math.IsNaN(g.Ratio) {
			t.Fatalf("Inf/NaN ratio leaked: %+v", g)
		}
	}
	want := map[string]string{
		"zero-base": SkipZeroBaseline,
		"zero-cur":  SkipZeroCurrent,
		"fresh":     SkipNoBaseline,
		"retired":   SkipRetired,
	}
	if len(got.Skipped) != len(want) {
		t.Fatalf("skips %+v, want one per problem record", got.Skipped)
	}
	for _, s := range got.Skipped {
		if want[s.Name] != s.Reason {
			t.Fatalf("skip %q reason %q, want %q", s.Name, s.Reason, want[s.Name])
		}
		if str := s.String(); !strings.Contains(str, "skipped") || !strings.Contains(str, s.Reason) {
			t.Fatalf("unhelpful skip string %q", str)
		}
	}
}

// TestDiffZeroBaselineRegressionStillCaught: a report mixing zero and
// valid baselines must still gate the valid pairs.
func TestDiffZeroBaselineRegressionStillCaught(t *testing.T) {
	base := New("go1.21", 1)
	base.Add(Record{Name: "zero", Seconds: 0})
	base.Add(Record{Name: "slow", Seconds: 1.0})
	cur := New("go1.21", 1)
	cur.Add(Record{Name: "zero", Seconds: 1.0})
	cur.Add(Record{Name: "slow", Seconds: 4.0})

	got := Diff(base, cur, 1.25)
	if len(got.Regressions) != 1 || got.Regressions[0].Name != "slow" || got.Regressions[0].Ratio != 4.0 {
		t.Fatalf("regressions %+v, want slow at 4.0x", got.Regressions)
	}
	if len(got.Skipped) != 1 || got.Skipped[0].Reason != SkipZeroBaseline {
		t.Fatalf("skips %+v, want the zero-baseline verdict", got.Skipped)
	}
}

// TestDiffCalibrationNormalizes: a current report from a machine twice as
// fast (calibration takes half as long) has every raw wall-clock time
// halved by hardware alone; normalization must cancel that so identical
// code neither regresses nor improves, and a genuine slowdown on the fast
// machine is still caught.
func TestDiffCalibrationNormalizes(t *testing.T) {
	base := New("go1.21", 1)
	base.CalibrationSeconds = 0.010
	base.Add(Record{Name: "steady", Seconds: 1.0})
	base.Add(Record{Name: "slow", Seconds: 1.0})

	cur := New("go1.21", 1)
	cur.CalibrationSeconds = 0.005 // machine is 2x faster
	cur.Add(Record{Name: "steady", Seconds: 0.5})
	cur.Add(Record{Name: "slow", Seconds: 1.0}) // 2x slower in code terms

	got := Diff(base, cur, 1.3)
	if len(got.Improvements) != 0 {
		t.Fatalf("hardware speedup misread as improvement: %+v", got.Improvements)
	}
	if len(got.Regressions) != 1 || got.Regressions[0].Name != "slow" {
		t.Fatalf("regressions %+v, want exactly slow", got.Regressions)
	}
	if r := got.Regressions[0].Ratio; math.Abs(r-2.0) > 1e-12 {
		t.Fatalf("normalized ratio %v, want 2.0", r)
	}

	// Either side missing a calibration stamp disables normalization: raw
	// ratios, exactly the pre-calibration behaviour.
	base.CalibrationSeconds = 0
	raw := Diff(base, cur, 1.3)
	if len(raw.Improvements) != 1 || raw.Improvements[0].Name != "steady" {
		t.Fatalf("uncalibrated diff %+v, want the raw steady improvement", raw.Improvements)
	}
}

// TestDiffImprovements: ratios below 1/tolerance are reported as
// improvements, never failures, and stay inside the band otherwise.
func TestDiffImprovements(t *testing.T) {
	base := New("go1.21", 1)
	base.Add(Record{Name: "faster", Seconds: 1.0})
	base.Add(Record{Name: "steady", Seconds: 1.0})
	cur := New("go1.21", 1)
	cur.Add(Record{Name: "faster", Seconds: 0.25})
	cur.Add(Record{Name: "steady", Seconds: 0.9})

	got := Diff(base, cur, 1.3)
	if len(got.Regressions) != 0 {
		t.Fatalf("nothing regressed, got %+v", got.Regressions)
	}
	if len(got.Improvements) != 1 || got.Improvements[0].Name != "faster" {
		t.Fatalf("improvements %+v, want exactly faster", got.Improvements)
	}
	im := got.Improvements[0]
	if im.Ratio != 0.25 || im.Old != 1.0 || im.New != 0.25 {
		t.Fatalf("improvement fields %+v", im)
	}
	if s := im.String(); !strings.Contains(s, "faster: ") || !strings.Contains(s, "0.25x") {
		t.Fatalf("unhelpful improvement string %q", s)
	}
}

// TestUnitRecords: counter records (Unit != "") are machine-independent —
// Diff compares them raw even under calibration, and a counter never
// matches a wall-clock record of the same name.
func TestUnitRecords(t *testing.T) {
	base := New("go1.21", 1)
	base.CalibrationSeconds = 0.010
	base.Add(Record{Name: "allocs", Seconds: 0.05, Unit: "allocs/event"})
	cur := New("go1.21", 1)
	cur.CalibrationSeconds = 0.005
	cur.Add(Record{Name: "allocs", Seconds: 0.05, Unit: "allocs/event"})

	got := Diff(base, cur, 1.3)
	if len(got.Regressions) != 0 || len(got.Improvements) != 0 || len(got.Skipped) != 0 {
		t.Fatalf("identical counter produced verdicts under calibration: %+v", got)
	}

	cur.Records[0].Seconds = 0.10 // the counter itself doubled
	got = Diff(base, cur, 1.3)
	if len(got.Regressions) != 1 || got.Regressions[0].Ratio != 2.0 {
		t.Fatalf("counter regression missed: %+v", got.Regressions)
	}
	if s := got.Regressions[0].String(); !strings.Contains(s, "allocs/event") {
		t.Fatalf("regression string lost the unit: %q", s)
	}

	// A unit mismatch is two one-sided records, not a bogus ratio.
	cur.Records[0].Unit = ""
	got = Diff(base, cur, 1.3)
	if len(got.Regressions) != 0 || len(got.Skipped) != 2 {
		t.Fatalf("unit mismatch not skipped on both sides: %+v", got)
	}
}

// TestZeroCounterRecords: a counter whose baseline is zero is gated, not
// skipped: zero again is no verdict, any count is a regression.
func TestZeroCounterRecords(t *testing.T) {
	base := New("go1.21", 1)
	base.Add(Record{Name: "allocs", Seconds: 0, Unit: "allocs/query"})
	cur := New("go1.21", 1)
	cur.Add(Record{Name: "allocs", Seconds: 0, Unit: "allocs/query"})
	if got := Diff(base, cur, 1.3); len(got.Regressions) != 0 || len(got.Improvements) != 0 || len(got.Skipped) != 0 {
		t.Fatalf("zero counter against zero baseline produced verdicts: %+v", got)
	}
	cur.Records[0].Seconds = 0.01
	got := Diff(base, cur, 1.3)
	if len(got.Regressions) != 1 || !math.IsInf(got.Regressions[0].Ratio, 1) {
		t.Fatalf("counter leaving zero not flagged: %+v", got)
	}
	if s := got.Regressions[0].String(); !strings.Contains(s, "allocs/query") {
		t.Fatalf("regression string lost the unit: %q", s)
	}
}

// TestCalibrationUnitDeterministic: the yardstick must return the same
// checksum every run — any data dependence on time, randomness or kernel
// code would desynchronize archived calibrations.
func TestCalibrationUnitDeterministic(t *testing.T) {
	first := CalibrationUnit()
	for i := 0; i < 3; i++ {
		if got := CalibrationUnit(); got != first {
			t.Fatalf("CalibrationUnit() = %d, then %d", first, got)
		}
	}
	if first == 0 {
		t.Fatal("checksum is zero; the workload may be optimized away")
	}
}
