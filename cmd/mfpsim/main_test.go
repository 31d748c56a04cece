package main

import (
	"testing"

	"repro/internal/fault"
)

func TestParseModels(t *testing.T) {
	ms, err := parseModels("both")
	if err != nil || len(ms) != 2 {
		t.Fatalf("both: %v %v", ms, err)
	}
	ms, err = parseModels("random")
	if err != nil || len(ms) != 1 || ms[0] != fault.Random {
		t.Fatalf("random: %v %v", ms, err)
	}
	ms, err = parseModels("clustered")
	if err != nil || len(ms) != 1 || ms[0] != fault.Clustered {
		t.Fatalf("clustered: %v %v", ms, err)
	}
	if _, err = parseModels("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestParseCounts(t *testing.T) {
	if got, err := parseCounts(""); err != nil || got != nil {
		t.Fatalf("empty: %v %v", got, err)
	}
	got, err := parseCounts("100, 200,300")
	if err != nil || len(got) != 3 || got[0] != 100 || got[2] != 300 {
		t.Fatalf("list: %v %v", got, err)
	}
	for _, bad := range []string{"x", "100,-5", "0", "1,,2"} {
		if _, err := parseCounts(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestFigureCaption(t *testing.T) {
	for _, fig := range []int{9, 10, 11} {
		if figureCaption(fig) == "" {
			t.Fatalf("no caption for figure %d", fig)
		}
	}
	if figureCaption(12) != "" {
		t.Fatal("caption for unknown figure")
	}
}

func TestChurnConfigFromFlags(t *testing.T) {
	cfg := churnConfig(100, nil, 200, 1)
	if cfg.Mesh.W != 100 || cfg.Mesh.H != 100 || cfg.Faults != 100 || cfg.Events != 200 || cfg.BaseSeed != 1 {
		t.Fatalf("default churn config: %+v", cfg)
	}
	if got := churnConfig(50, []int{30, 60}, 10, 2).Faults; got != 30 {
		t.Fatalf("explicit -faults ignored: %d", got)
	}
	if got := churnConfig(5, nil, 10, 1).Faults; got != 1 {
		t.Fatalf("tiny mesh floor: %d faults, want 1", got)
	}
}
