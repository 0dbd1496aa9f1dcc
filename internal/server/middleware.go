package server

import (
	"context"
	"net/http"
	"time"

	"analogyield/internal/core"
)

// Request logging, panic recovery, request IDs, client-IP resolution,
// CORS, body limits and in-flight caps all live in internal/httpx and
// are assembled around the mux in Server.Handler. This file keeps only
// the two route-level wrappers that need server state.

// observeLatency records route latency into a registry histogram (the
// bucket ladders exported at /metrics).
func observeLatency(h *core.Histogram, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		h.Observe(time.Since(t0))
	})
}

// withTimeout bounds a route's handling time with http.TimeoutHandler
// (503 + a JSON body on expiry). Streaming routes must not use this —
// TimeoutHandler's buffering breaks flushing. It is also deliberately
// kept off the hot read path: TimeoutHandler spawns a goroutine and
// double-buffers the whole response per request, which costs two extra
// scheduler hops per query on a loaded machine — see withDeadline.
func withTimeout(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.TimeoutHandler(next, d, `{"status":503,"error":"request timed out"}`)
}

// withDeadline is the cheap timeout guard for hot, fast, non-streaming
// routes: it arms a read deadline on the connection (so a trickled
// request body cannot pin a handler — and its in-flight token — past
// the budget) and a context deadline (so context-aware work aborts),
// then runs the handler inline. Unlike http.TimeoutHandler there is no
// per-request goroutine and no response buffering; the trade-off is
// that a handler that ignores its context finishes late instead of
// being cut off with a 503, which is acceptable exactly because these
// routes do bounded work.
func withDeadline(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		rc.SetReadDeadline(time.Now().Add(d)) //nolint:errcheck // unsupported writers just miss the guard
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
