package main

import (
	"log/slog"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/shard"
)

// httpMetrics is the daemon's HTTP instrument set on the process registry.
// It is package-level (not per-server) because registration is process-wide
// and the test suite builds several servers against one registry.
var httpMetrics = obs.NewHTTPMetrics(obs.Default, "mfpd")

// newHandler is the daemon's full HTTP stack: the API server wrapped in the
// metrics-and-request-logging middleware. logger may be nil to disable
// request logging (tests).
func newHandler(mgr *shard.Manager, logger *slog.Logger) http.Handler {
	return httpMetrics.Middleware(newServer(mgr), routeInfo, logger)
}

// routeInfo maps a request to its route pattern and mesh. Patterns are a
// small fixed vocabulary ("/v1/meshes/{name}/events", never the raw path),
// so the route label on the HTTP metrics stays bounded no matter how many
// meshes exist or what garbage paths clients probe; the mesh name goes to
// the request log only.
func routeInfo(r *http.Request) obs.RouteInfo {
	switch path := r.URL.Path; {
	case path == "/healthz":
		return obs.RouteInfo{Route: "/healthz"}
	case path == "/metrics":
		return obs.RouteInfo{Route: "/metrics"}
	case path == "/v1/meshes" || path == "/v1/meshes/":
		return obs.RouteInfo{Route: "/v1/meshes"}
	case strings.HasPrefix(path, "/v1/meshes/"):
		name, sub, _ := strings.Cut(strings.TrimPrefix(path, "/v1/meshes/"), "/")
		switch sub {
		case "":
			return obs.RouteInfo{Route: "/v1/meshes/{name}", Mesh: name}
		case "events", "status", "polygons", "route", "stats":
			return obs.RouteInfo{Route: "/v1/meshes/{name}/" + sub, Mesh: name}
		}
		return obs.RouteInfo{Route: "other", Mesh: name}
	}
	return obs.RouteInfo{Route: "other"}
}
