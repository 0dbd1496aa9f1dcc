// Command ayd serves the analogyield model-as-a-service API: cheap
// yield queries against saved behavioural models and asynchronous
// model-building flow jobs with live SSE event streams.
//
// Usage:
//
//	ayd serve [-addr :8080] [-models DIR]
//	          [-workers N] [-max-models N]
//	          [-max-inflight N] [-max-inflight-heavy N] [-max-body BYTES]
//	          [-query-timeout D] [-drain-timeout D]
//	          [-read-header-timeout D] [-idle-timeout D]
//	          [-max-header-bytes N]
//	          [-tls-cert FILE -tls-key FILE] [-trusted-proxies CIDRS]
//	          [-cors-origin ORIGINS] [-pprof 127.0.0.1:6060]
//	          [-replica-id ID] [-lease-ttl D]
//
// -replica-id enables cluster mode: replicas sharing one -models
// directory coordinate flow-job ownership through store leases and
// adopt a crashed or drained peer's jobs from the checkpoints it saved
// to the store. The replica that owns a job runs all of it.
//
// The HTTP layer is hardened for untrusted traffic (internal/httpx):
// panic recovery, request IDs, body limits, per-route and global
// in-flight caps, trusted-proxy client-IP resolution, optional CORS and
// TLS with modern defaults. GET /metrics exposes the full counter and
// latency-histogram registry in Prometheus text format; GET /healthz is
// liveness only.
//
// Model artefacts, job checkpoints, job records and leases persist under
// -models (a store.Disk), shared safely with other ayd processes on the
// same directory; the server writes nowhere else. The store survives a
// killed process, not a host crash: nothing is fsynced. A model saved by
// otaflow or yieldtool reaches the server through POST /v1/models.
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight queries
// drain, running flows checkpoint and stop (resumable on the next
// submission of the same model), and event streams close.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on the opt-in -pprof listener only
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"analogyield/internal/server"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "serve" {
		fmt.Fprintln(os.Stderr, "usage: ayd serve [flags]")
		fmt.Fprintln(os.Stderr, "run 'ayd serve -h' for flags")
		os.Exit(2)
	}
	os.Exit(serve(os.Args[2:]))
}

func serve(args []string) int {
	fs := flag.NewFlagSet("ayd serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		readHdrTO   = fs.Duration("read-header-timeout", 5*time.Second, "slowloris guard: max time a connection may take to send request headers (negative = unlimited)")
		idleTO      = fs.Duration("idle-timeout", 120*time.Second, "keep-alive: max idle time between requests on a connection (negative = unlimited)")
		maxHdr      = fs.Int("max-header-bytes", 0, "max request header bytes per connection (0 = Go default, 1 MiB)")
		models      = fs.String("models", server.DefaultModelsDir, "artefact store root holding models, job checkpoints and leases; shareable by several ayd processes")
		workers     = fs.Int("workers", 2, "flow worker pool size")
		maxModels   = fs.Int("max-models", 8, "maximum models resident in memory (LRU beyond)")
		maxInflight = fs.Int("max-inflight", 256, "maximum concurrent HTTP requests before shedding")
		heavyIF     = fs.Int("max-inflight-heavy", 32, "tighter in-flight cap on flow submission and model install routes")
		maxBody     = fs.Int64("max-body", 4<<20, "maximum request body bytes (oversized bodies get 413; negative = unlimited)")
		queryTO     = fs.Duration("query-timeout", 30*time.Second, "per-request timeout on non-streaming routes")
		drainTO     = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		tlsCert     = fs.String("tls-cert", "", "PEM certificate file; with -tls-key, serve TLS with modern defaults")
		tlsKey      = fs.String("tls-key", "", "PEM private key file for -tls-cert")
		proxies     = fs.String("trusted-proxies", "", "comma-separated CIDRs/IPs of reverse proxies whose X-Forwarded-For is honoured")
		corsOrigins = fs.String("cors-origin", "", "comma-separated origins allowed cross-origin browser access (\"*\" = any; default off)")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; default off)")
		replicaID   = fs.String("replica-id", "", "cluster mode: this replica's unique id (empty = single-node, no leases)")
		leaseTTL    = fs.Duration("lease-ttl", 0, "cluster mode: job lease TTL; a crashed replica's jobs are adoptable after this long (0 = 15s default)")
	)
	fs.Parse(args)

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *pprofAddr != "" {
		// The profiling endpoints live on their own listener, never on the
		// service address: bind them to localhost in production.
		go func() {
			log.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Error("pprof", "err", err)
			}
		}()
	}

	srv := server.New(server.Config{
		Addr:              *addr,
		ReadHeaderTimeout: *readHdrTO,
		IdleTimeout:       *idleTO,
		MaxHeaderBytes:    *maxHdr,

		ModelsDir:      *models,
		FlowWorkers:    *workers,
		MaxModels:      *maxModels,
		MaxInFlight:    *maxInflight,
		HeavyInFlight:  *heavyIF,
		MaxBodyBytes:   *maxBody,
		QueryTimeout:   *queryTO,
		DrainTimeout:   *drainTO,
		TLSCertFile:    *tlsCert,
		TLSKeyFile:     *tlsKey,
		TrustedProxies: splitList(*proxies),
		CORSOrigins:    splitList(*corsOrigins),
		Logger:         log,

		ReplicaID: *replicaID,
		LeaseTTL:  *leaseTTL,
	})
	if err := srv.Start(); err != nil {
		log.Error("start", "err", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // a second signal kills immediately
	log.Info("shutting down", "budget", drainTO.String())

	// No deadline here: Shutdown applies Config.DrainTimeout itself.
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Error("shutdown", "err", err)
		return 1
	}
	log.Info("bye")
	return 0
}

// splitList parses a comma-separated flag value into its non-empty
// trimmed entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
