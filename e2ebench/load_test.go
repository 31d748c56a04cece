package main

import (
	"testing"
	"time"
)

func TestChunkRatesTimeEachRunFromTheOneBefore(t *testing.T) {
	start := time.Now()
	p := &phase{start: start, end: start.Add(8 * time.Second)}
	for _, s := range []float64{0.5, 1, 3, 4, 7, 7.5} {
		p.reqs = append(p.reqs, request{})
		p.outs = append(p.outs, outcome{done: start.Add(time.Duration(s * float64(time.Second)))})
		p.issued = append(p.issued, true)
	}
	// Requests complete out of stream order on two connections.
	p.outs[0], p.outs[5] = p.outs[5], p.outs[0]
	p.reqs = append(p.reqs, request{}) // never sent
	p.outs = append(p.outs, outcome{})
	p.issued = append(p.issued, false)

	got := p.chunkRates(3)
	want := []float64{2 / 1.0, 2 / 3.0, 2 / 3.5}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("chunkRates(3) = %v, want %v", got, want)
		}
	}
	if got := p.chunkRates(10); len(got) != 1 || got[0] != 6.0/8 {
		t.Errorf("chunkRates(10) over 6 completions = %v, want the whole phase's [0.75]", got)
	}
}
