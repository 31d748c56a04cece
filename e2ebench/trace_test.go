package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func span(id, parent, start, end int64) Span {
	return Span{ID: id, Parent: parent, Req: 1, Name: "s", Start: start, End: end}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []Span{
		span(1, 0, 0, 100),
		span(2, 1, 10, 40),
		span(3, 1, 30, 60),  // overlaps span 2: [10,60) is covered once
		span(4, 1, 90, 120), // runs past its parent: only [90,100) counts
		span(5, 2, 15, 25),  // a grandchild counts against span 2, not span 1
		span(6, 0, 200, 210),
	}
	SelfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10, 6: 10}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d: self %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestSelfTimeNestedAndIdenticalChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, 0, 50),
		span(2, 1, 0, 50),
		span(3, 1, 0, 50),
		span(4, 1, 20, 30),
	}
	SelfTimes(spans)
	if spans[0].Self != 0 {
		t.Errorf("parent fully covered by children: self %d, want 0", spans[0].Self)
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 8}, {0, 3}}, 6},
		{[][2]int64{{0, 5}, {5, 10}}, 10},
		{[][2]int64{{-5, 3}, {8, 50}}, 5},
		{[][2]int64{{20, 30}}, 0},
	}
	for _, c := range cases {
		if got := covered(0, 10, c.ivs); got != c.want {
			t.Errorf("covered(0,10,%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestRecorderRecordsAndWritesOnce(t *testing.T) {
	rec := NewRecorder()
	root := rec.Begin(7, 0, "replay.events")
	child := rec.Begin(7, root, "wal.append")
	time.Sleep(time.Millisecond)
	rec.End(child)
	rec.End(root)
	start := time.Now()
	rec.Record(8, 0, "http.status", start, start.Add(3*time.Millisecond))

	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Req != 7 {
		t.Errorf("child span %+v does not point at its root", spans[1])
	}
	if spans[0].Duration() < spans[1].Duration() {
		t.Errorf("root %v shorter than its child %v", spans[0].Duration(), spans[1].Duration())
	}
	if spans[0].Self != spans[0].End-spans[0].Start-(spans[1].End-spans[1].Start) {
		t.Errorf("root self %d ignores its child", spans[0].Self)
	}
	if spans[2].Duration() != 3*time.Millisecond {
		t.Errorf("recorded span lasts %v, want 3ms", spans[2].Duration())
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := WriteSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var got []Span
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != len(spans) || got[1] != spans[1] {
		t.Errorf("span file round trip: got %+v, want %+v", got, spans)
	}
}
