package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"unicode/utf8"

	"repro/internal/grid"
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
// with each pair's hop counts. A batch only measures its routes
// (routing.Planner.Measure) on the workers it takes from the server's
// budget, so no trajectory is built for it, and both replies are written
// by the appenders below.
func (s *server) handleRoute(w http.ResponseWriter, r *http.Request, sh *shard.Shard[grid.Coord, grid.Mesh]) {
	if r.Method != http.MethodPost {
		writeMethodNotAllowed(w, "POST", `POST {"src":{"x":..,"y":..},"dst":{..}} or {"pairs":[..]}`)
		return
	}
	var req routeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRouteBody))
	if err := dec.Decode(&req); err != nil {
		writeDecodeError(w, fmt.Errorf("bad route request: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, codeBadRequest, "trailing data after route request")
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

	if single {
		route, err := planner.Route(grid.XY(req.Src.X, req.Src.Y), grid.XY(req.Dst.X, req.Dst.Y))
		if err != nil {
			status, code := routeStatus(err)
			writeError(w, status, code, "%v", err)
			return
		}
		writeBody(w, appendRouteReply(make([]byte, 0, 128+20*(route.Length()+1)), v.Version, hit, route))
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
	body := appendBatchHead(make([]byte, 0, 64+48*len(results)), v.Version, hit)
	for i, res := range results {
		if i > 0 {
			body = append(body, ',')
		}
		body = appendBatchResult(body, res.length, res.abnormal, res.err)
	}
	writeBody(w, append(body, "]}\n"...))
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

// appendRouteReply appends the single-pair reply for route.
func appendRouteReply(dst []byte, version uint64, hit bool, route *routing.Route) []byte {
	dst = appendReplyHead(dst, version, hit)
	dst = append(dst, `,"src":`...)
	dst = appendXY(dst, route.Src)
	dst = append(dst, `,"dst":`...)
	dst = appendXY(dst, route.Dst)
	dst = appendCounts(dst, `,"length":`, route.Length(), route.AbnormalHops)
	dst = append(dst, `,"path":[`...)
	dst = appendXY(dst, route.Src)
	for _, h := range route.Hops {
		dst = append(dst, ',')
		dst = appendXY(dst, h.To)
	}
	return append(dst, "]}\n"...)
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
