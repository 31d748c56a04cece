package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/pool"
	"repro/internal/routing"
	"repro/internal/shard"
)

// xy is the wire shape of a 2-D coordinate in route requests and replies.
type xy struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// routeRequest is the /route body: either one pair (src + dst) or a batch
// (pairs), never both.
type routeRequest struct {
	Src   *xy         `json:"src,omitempty"`
	Dst   *xy         `json:"dst,omitempty"`
	Pairs []routePair `json:"pairs,omitempty"`
}

type routePair struct {
	Src xy `json:"src"`
	Dst xy `json:"dst"`
}

// routeStatus maps a routing failure onto its HTTP status and error code:
// a disabled endpoint is a conflict with the mesh's current fault state
// (it can heal), an undeliverable route (border detour, exhausted hop
// budget) is a semantically valid request the current topology cannot
// satisfy, and anything else (endpoints off the mesh) is a bad request.
func routeStatus(err error) (int, string) {
	switch {
	case errors.Is(err, routing.ErrBlockedEndpoint):
		return http.StatusConflict, codeBlockedEndpoint
	case errors.Is(err, routing.ErrBorderRegion), errors.Is(err, routing.ErrHopBudget):
		return http.StatusUnprocessableEntity, codeUndeliverable
	default:
		return http.StatusBadRequest, codeBadRequest
	}
}

// handleRoute answers a single pair with its full trajectory and a batch
// with each pair's hop counts. The single pair's path is appended straight
// from the planner's walk (routing.Planner.AppendPath) into a pooled
// buffer, with no hop slice. A batch only measures its routes
// (routing.Planner.Measure), so no trajectory is built for it, on the
// workers it takes from the server's budget. Both replies are written by
// the appenders below.
func (s *server) handleRoute(w http.ResponseWriter, r *http.Request, sh *shard.Shard[grid.Coord, grid.Mesh]) {
	if r.Method != http.MethodPost {
		writeMethodNotAllowed(w, "POST", `POST {"src":{"x":..,"y":..},"dst":{..}} or {"pairs":[..]}`)
		return
	}
	req, err := decodeRouteRequest(http.MaxBytesReader(w, r.Body, maxRouteBody))
	s.answerRoute(w, sh, req, err)
}

// answerRoute answers a decoded /route request, or the error its decoding
// failed with.
func (s *server) answerRoute(w http.ResponseWriter, sh *shard.Shard[grid.Coord, grid.Mesh], req routeRequest, err error) {
	if errors.Is(err, errRouteTrailing) {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	if err != nil {
		writeDecodeError(w, fmt.Errorf("bad route request: %w", err))
		return
	}
	single := req.Src != nil || req.Dst != nil
	if single == (len(req.Pairs) > 0) {
		writeError(w, http.StatusBadRequest, codeBadRequest, "provide either src+dst or pairs")
		return
	}
	if single && (req.Src == nil || req.Dst == nil) {
		writeError(w, http.StatusBadRequest, codeBadRequest, "single queries need both src and dst")
		return
	}
	if len(req.Pairs) > maxRoutePairs {
		writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge, "batch of %d pairs exceeds %d", len(req.Pairs), maxRoutePairs)
		return
	}

	planner, v, hit, err := sh.Planner()
	if err != nil {
		writeShardError(w, err)
		return
	}

	buf := routeBufs.Get().(*routeBuf)
	defer buf.release()
	if single {
		src, dst := grid.XY(req.Src.X, req.Src.Y), grid.XY(req.Dst.X, req.Dst.Y)
		path, abnormal, err := planner.AppendPath(buf.path[:0], src, dst)
		buf.path = path
		if err != nil {
			status, code := routeStatus(err)
			writeError(w, status, code, "%v", err)
			return
		}
		buf.body = appendPathReply(buf.body[:0], v.Version, hit, src, dst, path, abnormal)
		writeBody(w, buf.body)
		return
	}

	type measured struct {
		length, abnormal int
		err              error
	}
	results := make([]measured, len(req.Pairs))
	workers := s.acquireRouteWorkers(min(len(req.Pairs), cap(s.routeSem)))
	pool.ForEach(len(req.Pairs), workers, func(i int) {
		p := req.Pairs[i]
		length, abnormal, err := planner.Measure(grid.XY(p.Src.X, p.Src.Y), grid.XY(p.Dst.X, p.Dst.Y))
		results[i] = measured{length, abnormal, err}
	})
	s.releaseRouteWorkers(workers)
	body := appendBatchHead(buf.body[:0], v.Version, hit)
	for i, res := range results {
		if i > 0 {
			body = append(body, ',')
		}
		body = appendBatchResult(body, res.length, res.abnormal, res.err)
	}
	buf.body = append(body, "]}\n"...)
	writeBody(w, buf.body)
}

// routeBuf is the scratch one /route reply is built in: the single pair's
// path and the reply body. Buffers are pooled across requests, so a
// steady stream of routes allocates none once they have grown to fit;
// buffers grown past the bounds below are dropped rather than pinned.
type routeBuf struct {
	path []grid.Coord
	body []byte
}

const (
	maxPooledPath = 4 << 10  // nodes
	maxPooledBody = 64 << 10 // bytes
)

var routeBufs = sync.Pool{New: func() any { return new(routeBuf) }}

// release returns the buffer to the pool once the reply is written
// (ResponseWriter.Write does not keep the slice it is given).
func (b *routeBuf) release() {
	if cap(b.path) <= maxPooledPath && cap(b.body) <= maxPooledBody {
		routeBufs.Put(b)
	}
}

// errRouteTrailing rejects a body with data after its JSON document.
var errRouteTrailing = errors.New("trailing data after route request")

// decodeRouteRequest reads and decodes a /route body. The two canonical
// bodies, exactly as compact encoding/json writes them,
//
//	{"src":{"x":X,"y":Y},"dst":{"x":X,"y":Y}}
//	{"pairs":[{"src":{"x":X,"y":Y},"dst":{"x":X,"y":Y}},...]}
//
// with plain decimal integers (kernel.ParseCanonicalCoord's), are scanned
// by hand; any other body, and one whose read failed, is decoded by
// encoding/json over the same bytes followed by the same read error, so
// the request and every error (a MaxBytesReader cap included) are what
// the reflective decoder alone gives. It returns errRouteTrailing for
// data after the document and the decoder's error otherwise.
func decodeRouteRequest(body io.Reader) (routeRequest, error) {
	data, rerr := io.ReadAll(body)
	if rerr == nil {
		if req, ok := parseCanonicalRoute(data); ok {
			return req, nil
		}
	}
	var in io.Reader = bytes.NewReader(data)
	if rerr != nil {
		in = io.MultiReader(in, failedRead{rerr})
	}
	var req routeRequest
	dec := json.NewDecoder(in)
	if err := dec.Decode(&req); err != nil {
		return routeRequest{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return routeRequest{}, errRouteTrailing
	}
	return req, nil
}

// failedRead replays, after a body's bytes, the error that ended its read.
type failedRead struct{ err error }

func (r failedRead) Read([]byte) (int, error) { return 0, r.err }

// parseCanonicalRoute scans a whole canonical /route body (see
// decodeRouteRequest). ok=false means "not canonical", never "bad input":
// the caller decodes the body through encoding/json for the verdict.
func parseCanonicalRoute(data []byte) (req routeRequest, ok bool) {
	pos := 0
	lit := func(l string) bool {
		if len(data)-pos < len(l) || string(data[pos:pos+len(l)]) != l {
			return false
		}
		pos += len(l)
		return true
	}
	pair := func() (routePair, bool) {
		var p routePair
		src, end, ok := kernel.ParseCanonicalCoord[grid.Coord](data, pos)
		if !ok {
			return p, false
		}
		pos = end
		if !lit(`,"dst":`) {
			return p, false
		}
		dst, end, ok := kernel.ParseCanonicalCoord[grid.Coord](data, pos)
		if !ok {
			return p, false
		}
		pos = end
		return routePair{Src: xy{src.X, src.Y}, Dst: xy{dst.X, dst.Y}}, lit(`}`)
	}
	switch {
	case lit(`{"src":`):
		p, ok := pair()
		if !ok || pos != len(data) {
			return req, false
		}
		req.Src, req.Dst = &p.Src, &p.Dst
		return req, true
	case lit(`{"pairs":[`):
		req.Pairs = []routePair{}
		if lit(`]}`) {
			return req, pos == len(data)
		}
		for {
			if !lit(`{"src":`) {
				return req, false
			}
			p, ok := pair()
			if !ok {
				return req, false
			}
			req.Pairs = append(req.Pairs, p)
			if lit(`]}`) {
				return req, pos == len(data)
			}
			if !lit(`,`) {
				return req, false
			}
		}
	}
	return req, false
}

// The route reply formats, each with a trailing newline:
//
//	{"version":N,"cache_hit":B,"src":P,"dst":P,"length":L,"abnormal_hops":A,"path":[P,..]}
//	{"version":N,"cache_hit":B,"routes":[{"length":L,"abnormal_hops":A[,"error":S]},..]}
//
// where a point P is {"x":..,"y":..} and the path lists the source and
// every hop's target. The bytes must equal what encoding/json writes for
// the same reply shapes: the golden transcript and a fuzzed differential
// test against reflection-based references pin them.

// appendPathReply appends the single-pair reply for the route from src to
// dst whose node path (the source first, as Planner.AppendPath writes it)
// and abnormal hop count are given; its length is one less than the path's.
func appendPathReply(buf []byte, version uint64, hit bool, src, dst grid.Coord, path []grid.Coord, abnormal int) []byte {
	buf = appendReplyHead(buf, version, hit)
	buf = append(buf, `,"src":`...)
	buf = appendXY(buf, src)
	buf = append(buf, `,"dst":`...)
	buf = appendXY(buf, dst)
	buf = appendCounts(buf, `,"length":`, len(path)-1, abnormal)
	buf = append(buf, `,"path":[`...)
	for i, c := range path {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendXY(buf, c)
	}
	return append(buf, "]}\n"...)
}

// appendBatchHead opens the batch reply up to its first result.
func appendBatchHead(dst []byte, version uint64, hit bool) []byte {
	return append(appendReplyHead(dst, version, hit), `,"routes":[`...)
}

// appendBatchResult appends one pair's outcome: its counts, and the error
// text when the pair failed (encoding/json omits an empty one).
func appendBatchResult(dst []byte, length, abnormal int, err error) []byte {
	dst = appendCounts(dst, `{"length":`, length, abnormal)
	if err != nil {
		if msg := err.Error(); msg != "" {
			dst = append(dst, `,"error":`...)
			dst = appendJSONString(dst, msg)
		}
	}
	return append(dst, '}')
}

func appendReplyHead(dst []byte, version uint64, hit bool) []byte {
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendUint(dst, version, 10)
	dst = append(dst, `,"cache_hit":`...)
	return strconv.AppendBool(dst, hit)
}

func appendCounts(dst []byte, open string, length, abnormal int) []byte {
	dst = append(dst, open...)
	dst = strconv.AppendInt(dst, int64(length), 10)
	dst = append(dst, `,"abnormal_hops":`...)
	return strconv.AppendInt(dst, int64(abnormal), 10)
}

func appendXY(dst []byte, c grid.Coord) []byte {
	dst = append(dst, `{"x":`...)
	dst = strconv.AppendInt(dst, int64(c.X), 10)
	dst = append(dst, `,"y":`...)
	dst = strconv.AppendInt(dst, int64(c.Y), 10)
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it with its default HTML escaping: <, > and & as \u003c, \u003e
// and \u0026, control bytes with the short escapes where JSON has them and
// \u00XX otherwise, U+2028 and U+2029 escaped, and each byte of invalid
// UTF-8 replaced by \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
