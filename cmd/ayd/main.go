// Command ayd serves the analogyield model-as-a-service API: cheap
// yield queries against saved behavioural models and asynchronous
// model-building flow jobs with live SSE event streams.
//
// Usage:
//
//	ayd serve [-addr :8080] [-listeners N] [-store disk|mem]
//	          [-models DIR] [-data DIR] [-workers N] [-max-models N]
//	          [-max-inflight N] [-max-inflight-heavy N] [-max-body BYTES]
//	          [-query-timeout D] [-drain-timeout D]
//	          [-read-header-timeout D] [-idle-timeout D]
//	          [-max-header-bytes N]
//	          [-tls-cert FILE -tls-key FILE] [-trusted-proxies CIDRS]
//	          [-cors-origin ORIGINS] [-pprof 127.0.0.1:6060]
//	          [-replica-id ID] [-peers URLS] [-lease-ttl D]
//
// -replica-id enables cluster mode: replicas sharing one -models
// directory coordinate flow-job ownership through store leases, adopt a
// crashed or drained peer's jobs from their mirrored checkpoints, and —
// when -peers lists the other replicas' base URLs — spread each job's
// Monte Carlo stage across the fleet (results stay bit-identical to a
// single-node run regardless of shard placement).
//
// -listeners N > 1 opens N SO_REUSEPORT sockets on -addr, each with
// its own accept loop and http.Server over the shared handler, so the
// kernel spreads connections across cores instead of funneling them
// through one accept queue (unsupported platforms fall back to 1).
//
// The HTTP layer is hardened for untrusted traffic (internal/httpx):
// panic recovery, request IDs, body limits, per-route and global
// in-flight caps, trusted-proxy client-IP resolution, optional CORS and
// TLS with modern defaults. GET /metrics exposes the full counter and
// latency-histogram registry in Prometheus text format; GET /healthz is
// liveness only.
//
// With -store disk (the default) model artefacts and job checkpoints
// persist content-addressed under -models, shared safely with other ayd
// processes on the same directory; -store mem keeps everything
// in-process (artefacts die with the server). A model saved by otaflow
// or yieldtool reaches the server through POST /v1/models.
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
	"analogyield/internal/store"
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
		listeners   = fs.Int("listeners", 1, "SO_REUSEPORT listener shards on -addr (each with its own accept loop; >1 needs kernel support, falls back to 1)")
		readHdrTO   = fs.Duration("read-header-timeout", 5*time.Second, "slowloris guard: max time a connection may take to send request headers (negative = unlimited)")
		idleTO      = fs.Duration("idle-timeout", 120*time.Second, "keep-alive: max idle time between requests on a connection (negative = unlimited)")
		maxHdr      = fs.Int("max-header-bytes", 0, "max request header bytes per connection (0 = Go default, 1 MiB)")
		storeKind   = fs.String("store", "disk", "artefact store backend: disk (durable, shareable) or mem (in-process)")
		models      = fs.String("models", "ayd-models", "artefact store root (with -store disk) and default -data directory")
		data        = fs.String("data", "", "job state directory (checkpoints); defaults to -models")
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
		peers       = fs.String("peers", "", "cluster mode: comma-separated peer base URLs for Monte Carlo shard dispatch (e.g. http://10.0.0.2:8080)")
		leaseTTL    = fs.Duration("lease-ttl", 0, "cluster mode: job lease TTL; a crashed replica's jobs are adoptable after this long (0 = 15s default)")
	)
	fs.Parse(args)

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *peers != "" && *replicaID == "" {
		log.Error("-peers requires -replica-id (cluster mode is off without one)")
		return 2
	}

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

	var st store.Store
	switch *storeKind {
	case "disk":
		st = store.OpenDisk(*models) // Config.withDefaults would do the same; explicit for -store symmetry
	case "mem":
		st = store.NewMemory()
	default:
		log.Error("bad -store", "value", *storeKind, "want", "disk or mem")
		return 2
	}

	srv := server.New(server.Config{
		Addr:              *addr,
		Listeners:         *listeners,
		ReadHeaderTimeout: *readHdrTO,
		IdleTimeout:       *idleTO,
		MaxHeaderBytes:    *maxHdr,

		Store:          st,
		ModelsDir:      *models,
		DataDir:        *data,
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
		Peers:     splitList(*peers),
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
