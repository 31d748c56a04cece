package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what happened to one request.
type outcome struct {
	sent, done time.Time
	// err is empty for a correct answer; otherwise it says why the request
	// failed (transport error, unexpected status, wrong answer).
	err string
}

// phase is the result of driving one request stream.
type phase struct {
	start time.Time
	reqs  []request
	outs  []outcome
	// issued[i] reports whether reqs[i] was sent (a closed-loop phase
	// stops at its deadline, leaving the rest unsent).
	issued []bool
	lags   []float64 // open loop: seconds the generator ran behind each due time
	end    time.Time
}

// conn is one client connection with the per-connection answer state the
// checks need: reads on one connection are sequential, so the versions
// they see must never go backwards, and event replies must advance the
// version by exactly the number of events applied.
type conn struct {
	client      *http.Client
	lastVersion uint64
	// writes is shared by the connections of one phase, which send event
	// batches one at a time.
	writes *writeState
}

// writeState is the version of the last acknowledged event batch.
type writeState struct{ version uint64 }

// execute sends reqs[i] on c and records its outcome.
func (p *phase) execute(ctx context.Context, base string, c *conn, i int, rec *Recorder) {
	r := &p.reqs[i]
	sent := time.Now()
	status, body, err := do(ctx, c.client, base, r.Method, r.Path, r.Body)
	done := time.Now()
	o := outcome{sent: sent, done: done}
	if err != nil {
		o.err = "transport: " + err.Error()
	} else {
		o.err = c.verify(r, status, body)
	}
	p.outs[i] = o
	p.issued[i] = true
	if rec != nil { // one client span per request, from due to done
		id := int64(i) + 1
		due := p.start.Add(r.Due)
		if due.After(sent) {
			due = sent
		}
		root := rec.Record(id, 0, "http."+r.Op.String(), due, done)
		rec.Record(id, root, "http.send", sent, done)
	}
}

// leadingVersion reads the version of a reply that starts with
// {"version":N — polygons and route replies — without decoding the rest,
// so the client does not burn the CPU it shares with mfpd.
func leadingVersion(body []byte) (uint64, bool) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"version":`))
	if !ok {
		return 0, false
	}
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseUint(string(rest[:end]), 10, 64)
	return v, err == nil
}

// verify checks one answer; it returns "" when the answer is correct.
func (c *conn) verify(r *request, status int, body []byte) string {
	var version uint64
	switch r.Op {
	case opEvents:
		if status != http.StatusOK {
			return fmt.Sprintf("events: HTTP %d: %s", status, body)
		}
		var rep struct {
			Version uint64 `json:"version"`
			Applied int    `json:"applied"`
			Ignored int    `json:"ignored"`
			Faults  int    `json:"faults"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			return "events: " + err.Error()
		}
		if rep.Applied != len(r.Events) || rep.Ignored != 0 || rep.Faults != r.FaultsAfter {
			return fmt.Sprintf("events: applied %d ignored %d faults %d, want %d, 0, %d",
				rep.Applied, rep.Ignored, rep.Faults, len(r.Events), r.FaultsAfter)
		}
		if w := c.writes; w.version != 0 && rep.Version != w.version+uint64(rep.Applied) {
			return fmt.Sprintf("events: version %d after %d, want +%d", rep.Version, w.version, rep.Applied)
		}
		c.writes.version = rep.Version
		version = rep.Version
	case opStatus:
		if status != http.StatusOK {
			return fmt.Sprintf("status: HTTP %d: %s", status, body)
		}
		var rep struct {
			Class   string `json:"class"`
			Version uint64 `json:"version"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			return "status: " + err.Error()
		}
		switch rep.Class {
		case "safe", "enabled", "disabled", "faulty":
		default:
			return "status: unknown class " + rep.Class
		}
		version = rep.Version
	case opPolygons, opBatch, opRoute:
		if r.Op == opRoute && (status == http.StatusConflict || status == http.StatusUnprocessableEntity) {
			// A blocked endpoint or an undeliverable pair is a correct
			// answer about the current fault state.
			var rep struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &rep); err != nil {
				return "route: " + err.Error()
			}
			want := map[int]string{http.StatusConflict: "blocked_endpoint", http.StatusUnprocessableEntity: "undeliverable"}[status]
			if rep.Error.Code != want {
				return fmt.Sprintf("route: HTTP %d with code %q", status, rep.Error.Code)
			}
			return ""
		}
		if status != http.StatusOK {
			return fmt.Sprintf("%s: HTTP %d: %s", r.Op, status, body)
		}
		v, ok := leadingVersion(body)
		if !ok || !bytes.HasSuffix(body, []byte("}\n")) {
			return fmt.Sprintf("%s: malformed reply", r.Op)
		}
		version = v
	}
	if version < c.lastVersion {
		return fmt.Sprintf("%s: version went back from %d to %d on one connection", r.Op, c.lastVersion, version)
	}
	c.lastVersion = version
	return ""
}

// runOpenLoop sends every request at its due time, whatever the state of
// earlier ones, on two connections. Event batches all go on the first
// connection, in order, so the fault set each one leaves is known; a read
// goes to the connection with fewer requests outstanding.
func runOpenLoop(ctx context.Context, base string, conns [2]*conn, reqs []request, rec *Recorder) *phase {
	p := &phase{reqs: reqs, outs: make([]outcome, len(reqs)), issued: make([]bool, len(reqs)), lags: make([]float64, 0, len(reqs))}
	// Sized to the number of sends, so the scheduler never blocks on a
	// busy connection: a stall delays the requests behind it, not their
	// due times.
	queues := [2]chan int{make(chan int, len(reqs)), make(chan int, len(reqs))}
	var outstanding [2]atomic.Int64
	var wg sync.WaitGroup
	for w := range queues {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queues[w] {
				p.execute(ctx, base, conns[w], i, rec)
				outstanding[w].Add(-1)
			}
		}(w)
	}
	p.start = time.Now()
	for i := range reqs {
		due := p.start.Add(reqs[i].Due)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		p.lags = append(p.lags, time.Since(due).Seconds())
		w := 0
		if reqs[i].Op != opEvents && outstanding[1].Load() <= outstanding[0].Load() {
			w = 1
		}
		outstanding[w].Add(1)
		queues[w] <- i
	}
	close(queues[0])
	close(queues[1])
	wg.Wait()
	p.end = time.Now()
	return p
}

// runClosedLoop has both connections take the next request of the stream
// as soon as their previous one completes, until dur has passed, so the
// completed requests keep the stream's mix. Event batches still run one at
// a time in stream order: a connection that draws a batch waits for the
// batch before it to be acknowledged.
func runClosedLoop(ctx context.Context, base string, conns [2]*conn, reqs []request, dur time.Duration) *phase {
	p := &phase{reqs: reqs, outs: make([]outcome, len(reqs)), issued: make([]bool, len(reqs))}
	ordinal := make([]int, len(reqs)) // position of each batch among the batches
	n := 0
	for i, r := range reqs {
		if r.Op == opEvents {
			ordinal[i] = n
			n++
		}
	}
	var (
		mu      sync.Mutex
		turn    = sync.NewCond(&mu)
		nextReq int
		nextEv  int
	)
	p.start = time.Now()
	deadline := p.start.Add(dur)
	var wg sync.WaitGroup
	for w := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				mu.Lock()
				if nextReq == len(reqs) || time.Now().After(deadline) || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				i := nextReq
				nextReq++
				isEvent := reqs[i].Op == opEvents
				for isEvent && nextEv != ordinal[i] {
					turn.Wait()
				}
				mu.Unlock()
				p.execute(ctx, base, c, i, nil)
				if isEvent {
					mu.Lock()
					nextEv++
					turn.Broadcast()
					mu.Unlock()
				}
			}
		}(conns[w])
	}
	wg.Wait()
	p.end = time.Now()
	return p
}

// latencies returns the issued requests' latencies of one op in seconds,
// timed from their due time, sorted. A failed request counts as missing
// every latency limit (+Inf).
func (p *phase) latencies(o op) []float64 {
	var out []float64
	for i, r := range p.reqs {
		if r.Op != o || !p.issued[i] {
			continue
		}
		if p.outs[i].err != "" {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, p.outs[i].done.Sub(p.start.Add(r.Due)).Seconds())
	}
	sort.Float64s(out)
	return out
}

// chunkRates splits the phase's completions, in completion order, into n
// runs of equal count and returns each run's completions per second, timed
// from the completion before it (the phase start for the first).
func (p *phase) chunkRates(n int) []float64 {
	var done []float64
	for i := range p.reqs {
		if p.issued[i] {
			done = append(done, p.outs[i].done.Sub(p.start).Seconds())
		}
	}
	sort.Float64s(done)
	size := len(done) / n
	if size == 0 {
		return []float64{ratio(float64(len(done)), p.end.Sub(p.start).Seconds())}
	}
	out := make([]float64, n)
	prev := 0.0
	for k := range out {
		end := done[(k+1)*size-1]
		out[k] = ratio(float64(size), end-prev)
		prev = end
	}
	return out
}

// counts returns how many requests were issued and how many failed, and
// the first failure message.
func (p *phase) counts() (attempted, failed int, first string) {
	for i := range p.reqs {
		if !p.issued[i] {
			continue
		}
		attempted++
		if p.outs[i].err != "" {
			if failed == 0 {
				first = p.outs[i].err
			}
			failed++
		}
	}
	return attempted, failed, first
}
