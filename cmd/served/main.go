// Command served runs the batched distinguisher inference service:
// the online phase of Algorithm 2 behind an HTTP API, serving trained
// distinguisher files produced by `distinguisher -savedist`.
//
// It has two modes. The default (replica) mode serves models directly,
// optionally anchoring every admission and verdict into a
// tamper-evident ledger. With -router it instead fronts a fleet of
// replicas: models shard across them by consistent hashing on the
// model name, hot reloads fan out to every owning replica, and dead
// replicas drain onto their ring successors automatically.
//
// Examples:
//
//	served -model speck5=speck5.gob
//	served -addr :9090 -model a=a.gob -model b=b.gob -max-batch 512 -max-delay 1ms
//	served -model speck5=speck5.gob -ledger audit.log -anchor audit.anchor
//	served -router -replica http://127.0.0.1:9001 -replica http://127.0.0.1:9002
//
// Endpoints (replica mode; the router proxies the same API):
//
//	POST /v1/classify     {"model":"speck5","hex":["00e08c1a",...]} → predicted classes
//	POST /v1/distinguish  {"model":"speck5","hex":[...],"labels":[0,1,...]} → CIPHER/RANDOM verdict
//	GET  /models          list loaded models
//	POST /models          {"name":"x","path":"x.gob"} hot-(re)load a model
//	GET  /metrics         request counts, batch-size histogram, queue depth, p50/p99 latency
//	GET  /healthz         liveness
//	GET  /ledger/anchor   audit-chain head (with -ledger)
//	GET  /ledger/proof    ?seq=N inclusion proof, verifiable offline by ledgerverify
//
// Both inference endpoints take the feature rows either as "hex"
// strings (bits.Hex of the little-endian feature bytes) or as "rows" of
// numbers, each 0 or 1: {"model":"speck5","rows":[[0,1,...],...]}. The
// body must be one JSON object with no keys beyond model, rows, hex,
// labels and sigmas, each at most once.
//
// Router-only endpoints:
//
//	GET  /cluster/state   replica liveness, catalog, model placement
//	POST /cluster/gossip  liveness exchange between peer routers
//
// SIGINT/SIGTERM stop the listener, drain in-flight requests (bounded
// by -drain), then exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/ledger"
	"repro/internal/serve"
)

// modelFlags collects repeated -model name=path flags.
type modelFlags []struct{ name, path string }

func (m *modelFlags) String() string {
	var parts []string
	for _, e := range *m {
		parts = append(parts, e.name+"="+e.path)
	}
	return strings.Join(parts, ",")
}

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

// urlFlags collects repeated -replica / -peer base-URL flags.
type urlFlags []string

func (u *urlFlags) String() string { return strings.Join(*u, ",") }

func (u *urlFlags) Set(v string) error {
	if !strings.HasPrefix(v, "http://") && !strings.HasPrefix(v, "https://") {
		return fmt.Errorf("want a base URL (http://host:port), got %q", v)
	}
	*u = append(*u, strings.TrimRight(v, "/"))
	return nil
}

// options carries every flag; validateFlags checks the combination up
// front so a bad invocation dies as a usage error, not mid-run.
type options struct {
	addr    string
	models  modelFlags
	timeout time.Duration
	drain   time.Duration

	// Replica mode.
	maxBatch    int
	maxDelay    time.Duration
	workers     int
	queue       int
	ledgerPath  string
	anchorPath  string
	ledgerBatch int
	ledgerDelay time.Duration

	// Router mode.
	router        bool
	replicas      urlFlags
	replication   int
	vnodes        int
	probeInterval time.Duration
	failAfter     int
	peers         urlFlags
}

// replicaOnly and routerOnly name the flags tied to one mode, for the
// cross-mode rejection message.
var (
	replicaOnly = []string{"model", "max-batch", "max-delay", "workers", "queue", "ledger", "anchor", "ledger-batch", "ledger-delay"}
	routerOnly  = []string{"replica", "replication", "vnodes", "probe-interval", "fail-after", "peer"}
)

// validateFlags rejects bad flag values and mode mismatches up front
// so a typo surfaces as a usage error, not as a silent no-op or a
// mid-run failure. set holds the flag names explicitly given on the
// command line (flag.Visit), distinguishing defaults from intent.
func validateFlags(o *options, set map[string]bool) error {
	if o.router {
		for _, name := range replicaOnly {
			if set[name] {
				return fmt.Errorf("-%s only applies to replica mode, not -router (models are admitted through the router's POST /models)", name)
			}
		}
		if len(o.replicas) == 0 {
			return fmt.Errorf("-router needs at least one -replica URL")
		}
		if o.replication < 1 {
			return fmt.Errorf("-replication must be at least 1, got %d", o.replication)
		}
		if o.vnodes < 1 {
			return fmt.Errorf("-vnodes must be at least 1, got %d", o.vnodes)
		}
		if o.probeInterval <= 0 {
			return fmt.Errorf("-probe-interval must be positive, got %s", o.probeInterval)
		}
		if o.failAfter < 1 {
			return fmt.Errorf("-fail-after must be at least 1, got %d", o.failAfter)
		}
		return nil
	}
	for _, name := range routerOnly {
		if set[name] {
			return fmt.Errorf("-%s only applies to -router mode", name)
		}
	}
	if o.maxBatch < 1 || o.workers < 1 || o.queue < 1 {
		return fmt.Errorf("-max-batch, -workers and -queue must all be ≥ 1")
	}
	if o.anchorPath != "" && o.ledgerPath == "" {
		return fmt.Errorf("-anchor requires -ledger (the anchor file is the ledger's detached chain head)")
	}
	if set["ledger-batch"] || set["ledger-delay"] {
		if o.ledgerPath == "" {
			return fmt.Errorf("-ledger-batch/-ledger-delay require -ledger")
		}
		if o.ledgerBatch < 1 {
			return fmt.Errorf("-ledger-batch must be at least 1, got %d", o.ledgerBatch)
		}
		if o.ledgerDelay <= 0 {
			return fmt.Errorf("-ledger-delay must be positive, got %s", o.ledgerDelay)
		}
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.maxBatch, "max-batch", 256, "rows per coalesced inference batch (also the per-request row cap)")
	flag.DurationVar(&o.maxDelay, "max-delay", 2*time.Millisecond, "max time a non-full batch waits to coalesce")
	flag.IntVar(&o.workers, "workers", 2, "inference workers, each with its own scratch matrix")
	flag.IntVar(&o.queue, "queue", 256, "request queue depth; beyond it requests are shed with 429")
	flag.DurationVar(&o.timeout, "timeout", 5*time.Second, "per-request deadline (queue wait + inference)")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "max time to drain in-flight requests on shutdown")
	flag.Var(&o.models, "model", "name=path of a distinguisher file (repeatable); more can be loaded later via POST /models")
	flag.StringVar(&o.ledgerPath, "ledger", "", "append-only audit log of admissions and verdicts (enables /ledger endpoints)")
	flag.StringVar(&o.anchorPath, "anchor", "", "detached anchor file for offline verification (requires -ledger)")
	flag.IntVar(&o.ledgerBatch, "ledger-batch", 64, "records per sealed ledger batch")
	flag.DurationVar(&o.ledgerDelay, "ledger-delay", 500*time.Millisecond, "max time a partial ledger batch stays unsealed")
	flag.BoolVar(&o.router, "router", false, "route a replica fleet instead of serving models directly")
	flag.Var(&o.replicas, "replica", "base URL of a served replica (repeatable, router mode)")
	flag.IntVar(&o.replication, "replication", 2, "replicas owning each model (router mode)")
	flag.IntVar(&o.vnodes, "vnodes", 64, "virtual nodes per replica on the hash ring (router mode)")
	flag.DurationVar(&o.probeInterval, "probe-interval", time.Second, "health-probe period (router mode)")
	flag.IntVar(&o.failAfter, "fail-after", 2, "consecutive probe failures that mark a replica dead (router mode)")
	flag.Var(&o.peers, "peer", "base URL of a peer router to gossip replica liveness with (repeatable, router mode)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(&o, set); err != nil {
		fmt.Fprintln(os.Stderr, "served:", err)
		flag.Usage()
		os.Exit(2)
	}

	runMode := run
	if o.router {
		runMode = runRouter
	}
	if err := runMode(&o); err != nil {
		fmt.Fprintln(os.Stderr, "served:", err)
		os.Exit(1)
	}
}

// run is replica mode: one serving process, optionally ledgered.
func run(o *options) error {
	var led *ledger.Ledger
	if o.ledgerPath != "" {
		var err error
		led, err = ledger.Open(o.ledgerPath, ledger.Config{
			MaxBatch:   o.ledgerBatch,
			MaxDelay:   o.ledgerDelay,
			AnchorPath: o.anchorPath,
			Sync:       true,
		})
		if err != nil {
			return err
		}
		defer led.Close()
		fmt.Printf("served: audit ledger at %s (%d records anchored)\n", o.ledgerPath, led.Len())
	}
	srv := serve.New(serve.Config{
		Scheduler: serve.SchedulerConfig{
			MaxBatch:   o.maxBatch,
			MaxDelay:   o.maxDelay,
			Workers:    o.workers,
			QueueDepth: o.queue,
		},
		RequestTimeout: o.timeout,
		Ledger:         led,
	})
	for _, m := range o.models {
		e, seq, err := srv.Admit(m.name, m.path)
		if err != nil {
			return err
		}
		anchored := ""
		if led != nil {
			anchored = fmt.Sprintf(", ledger seq %d", seq)
		}
		fmt.Printf("served: loaded %s v%d from %s (%s, %d features, offline accuracy %.4f%s)\n",
			e.Name, e.Version, e.Path, e.Dist.Scenario.Name(), e.FeatureLen(), e.Dist.Accuracy, anchored)
	}
	if len(o.models) == 0 {
		fmt.Println("served: no -model flags; load models at runtime via POST /models")
	}
	return listenAndDrain(o, srv.Handler(), "listening", func(ctx context.Context) {
		srv.Close()
	})
}

// runRouter is router mode: shard the replica fleet, no local models.
func runRouter(o *options) error {
	rt, err := cluster.NewRouter(cluster.Config{
		Replicas:      o.replicas,
		Replication:   o.replication,
		VNodes:        o.vnodes,
		ProbeInterval: o.probeInterval,
		FailAfter:     o.failAfter,
		Peers:         o.peers,
		Client:        &http.Client{Timeout: o.timeout},
	})
	if err != nil {
		return err
	}
	rt.Start()
	fmt.Printf("served: routing %d replica(s), replication %d, %d vnodes\n",
		len(o.replicas), o.replication, o.vnodes)
	return listenAndDrain(o, rt.Handler(), "router listening", func(ctx context.Context) {
		rt.Stop()
	})
}

// Connection bounds of every listener, replica or router. Without them
// a client that trickles its header or body, or parks an idle
// keep-alive connection, holds the connection and its goroutine
// forever.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer builds the listener's http.Server with the connection
// bounds above.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// listenAndDrain runs the HTTP listener until SIGINT/SIGTERM, then
// shuts down gracefully (bounded by -drain) and lets the mode clean up
// its backend.
func listenAndDrain(o *options, handler http.Handler, banner string, cleanup func(context.Context)) error {
	httpSrv := newHTTPServer(o.addr, handler)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("served: %s on %s\n", banner, o.addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("served: signal received, draining")

	// Stop accepting, let in-flight handlers finish (bounded), then
	// drain the backend so every accepted request is answered.
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	err := httpSrv.Shutdown(drainCtx)
	cleanup(drainCtx)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("served: drained cleanly")
	return nil
}
