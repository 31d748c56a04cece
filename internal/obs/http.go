package obs

import (
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"
)

// HTTPMetrics is the instrument set of one HTTP server: per-route request
// counts by status class, a per-route latency histogram, and an in-flight
// gauge. Construct it once (registration is idempotent, so tests and tools
// can build the same set the service does) and wrap the handler with
// Middleware.
type HTTPMetrics struct {
	requests CounterVec   // route, code class
	latency  HistogramVec // route
	inflight *Gauge
	reqID    atomic.Uint64
}

// NewHTTPMetrics registers the HTTP instrument set on r under the given
// name prefix (e.g. "mfpd" -> mfpd_http_requests_total).
func NewHTTPMetrics(r *Registry, prefix string) *HTTPMetrics {
	return &HTTPMetrics{
		requests: r.CounterVec(prefix+"_http_requests_total",
			"HTTP requests served, by route pattern and status class.", "route", "code"),
		latency: r.HistogramVec(prefix+"_http_request_seconds",
			"HTTP request latency in seconds, by route pattern.", LatencyBuckets, "route"),
		inflight: r.Gauge(prefix+"_http_in_flight",
			"HTTP requests currently being served."),
	}
}

// RouteInfo is what the middleware needs to know about a request without
// exploding label cardinality: the route pattern (a small fixed set like
// "/v1/meshes/{name}/events", never the raw path) and, when mesh-scoped, the
// mesh name — which goes to the request log only, never to a label.
type RouteInfo struct {
	Route string
	Mesh  string
}

// statusWriter captures the status code and body size of a response.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// codeClass buckets a status code into the class label ("2xx".."5xx").
func codeClass(status int) string {
	switch {
	case status < 200:
		return "1xx"
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// Middleware wraps next with metrics and structured request logging.
// routeOf maps a request to its route pattern and mesh; logger may be nil
// to disable logging. Every request gets a process-unique id so a stress
// run's client-side trace can be correlated with the server log; probe
// routes (/healthz, /metrics) log at Debug so scrapes don't drown the log.
func (m *HTTPMetrics) Middleware(next http.Handler, routeOf func(*http.Request) RouteInfo, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := routeOf(r)
		id := fmt.Sprintf("r%08d", m.reqID.Add(1))
		sw := &statusWriter{ResponseWriter: w}
		m.inflight.Inc()
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		m.inflight.Dec()
		if sw.status == 0 {
			// Handler wrote nothing; net/http will send 200 on return.
			sw.status = http.StatusOK
		}
		m.requests.With(info.Route, codeClass(sw.status)).Inc() //mfplint:bounded Route is a pattern from routeOf's fixed vocabulary ("/v1/meshes/{name}/events", "other", ...), never a raw URL path
		m.latency.With(info.Route).ObserveDuration(elapsed)     //mfplint:bounded Route is a pattern from the server's fixed route table, as above

		if logger == nil {
			return
		}
		level := slog.LevelInfo
		if info.Route == "/healthz" || info.Route == "/metrics" {
			level = slog.LevelDebug
		}
		attrs := []slog.Attr{
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", info.Route),
			slog.Int("status", sw.status),
			slog.Duration("duration", elapsed),
			slog.Int("bytes", sw.bytes),
		}
		if info.Mesh != "" {
			attrs = append(attrs, slog.String("mesh", info.Mesh))
		}
		if r.RemoteAddr != "" {
			attrs = append(attrs, slog.String("remote", r.RemoteAddr))
		}
		logger.LogAttrs(r.Context(), level, "request", attrs...)
	})
}
