package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// Config shapes a Router. Zero values select the defaults documented
// on each field.
type Config struct {
	// Replicas are the base URLs of the served replicas behind this
	// router (e.g. http://127.0.0.1:9001). The set is fixed for the
	// router's lifetime; liveness within it is dynamic.
	Replicas []string
	// Replication is how many replicas own each model (default 2, so
	// the ring successor already holds a dead owner's models).
	Replication int
	// VNodes is the virtual-point count per replica on the hash ring
	// (default 64).
	VNodes int
	// ProbeInterval is the health-probe period (default 1s). Each tick
	// probes every replica, gossips with peers, and repairs model
	// placement.
	ProbeInterval time.Duration
	// FailAfter is how many consecutive probe failures mark a replica
	// dead (default 2). Forwarding errors count too, so a dead replica
	// under traffic is usually drained before the prober notices.
	FailAfter int
	// Peers are base URLs of peer routers to exchange replica liveness
	// with on each probe tick.
	Peers []string
	// ConvergeTimeout bounds how long a routed hot reload polls the
	// owners' /models listings before giving up (default 5s).
	ConvergeTimeout time.Duration
	// Client is the HTTP client for all replica and peer traffic
	// (default: 5s-timeout client).
	Client *http.Client
}

func (c *Config) setDefaults() {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.Replication > len(c.Replicas) {
		c.Replication = len(c.Replicas)
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.ConvergeTimeout <= 0 {
		c.ConvergeTimeout = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 5 * time.Second}
	}
}

// ReplicaState is one replica's liveness as this router sees it.
// AsOf (unix nanoseconds) timestamps the observation so gossip can
// merge by recency: whichever router saw the replica most recently
// wins.
type ReplicaState struct {
	Alive bool  `json:"alive"`
	Fails int   `json:"fails"`
	AsOf  int64 `json:"asOf"`
}

// Router shards models across replicas by consistent hashing on the
// model name and proxies the serving API: classify/distinguish
// requests go to an alive owner (retrying ring successors on
// connection errors), hot reloads fan out to every owner and ack only
// after each owner's registry version has converged, and /metrics
// aggregates every alive replica's instruments under a replica label.
type Router struct {
	cfg Config

	ring *Ring
	mux  *http.ServeMux

	mu      sync.RWMutex
	state   map[string]*ReplicaState
	catalog map[string]string          // model name → file path, as admitted through the router
	have    map[string]map[string]bool // replica → model names pushed successfully

	// Instrumentation for the router's own /metrics section.
	Routed   *metrics.CounterVec // forwarded requests per replica
	Retries  *metrics.Counter    // forwards retried on a ring successor
	Repairs  *metrics.Counter    // models re-pushed after membership changed
	Probes   *metrics.Counter    // health-probe rounds completed
	started  time.Time
	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// NewRouter builds a router over cfg.Replicas. All replicas start
// presumed alive; the first probe round corrects that. Call Start to
// run the probe/gossip/repair loop and Stop to halt it.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one replica")
	}
	cfg.setDefaults()
	rt := &Router{
		cfg:     cfg,
		ring:    NewRing(cfg.Replicas, cfg.VNodes),
		mux:     http.NewServeMux(),
		state:   make(map[string]*ReplicaState, len(cfg.Replicas)),
		catalog: map[string]string{},
		have:    map[string]map[string]bool{},
		Routed:  &metrics.CounterVec{},
		Retries: &metrics.Counter{},
		Repairs: &metrics.Counter{},
		Probes:  &metrics.Counter{},
		started: time.Now(),
		stop:    make(chan struct{}),
	}
	now := time.Now().UnixNano()
	for _, addr := range cfg.Replicas {
		rt.state[addr] = &ReplicaState{Alive: true, AsOf: now}
		rt.have[addr] = map[string]bool{}
	}
	rt.mux.HandleFunc("POST /v1/classify", rt.handleForward)
	rt.mux.HandleFunc("POST /v1/distinguish", rt.handleForward)
	rt.mux.HandleFunc("GET /models", rt.handleModelsList)
	rt.mux.HandleFunc("POST /models", rt.handleModelsLoad)
	rt.mux.HandleFunc("DELETE /models/{name}", rt.handleModelsDelete)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /cluster/state", rt.handleState)
	rt.mux.HandleFunc("POST /cluster/gossip", rt.handleGossip)
	return rt, nil
}

// Handler returns the router's root handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Ring exposes the hash ring (read-only) for placement inspection.
func (rt *Router) Ring() *Ring { return rt.ring }

func (rt *Router) alive(addr string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	st, ok := rt.state[addr]
	return ok && st.Alive
}

// owners returns the alive replicas that should serve model, in ring
// order: owners[0] is the primary, the rest are the successors a
// forward retries.
func (rt *Router) owners(model string) []string {
	return rt.ring.Owners(model, rt.cfg.Replication, rt.alive)
}

// noteFailure records a failed request to addr (probe or forward).
// FailAfter consecutive failures mark the replica dead, which drains
// it: subsequent owner lookups skip it, so its models are served by
// their ring successors.
func (rt *Router) noteFailure(addr string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := rt.state[addr]
	if st == nil {
		return
	}
	st.Fails++
	st.AsOf = time.Now().UnixNano()
	if st.Fails >= rt.cfg.FailAfter {
		st.Alive = false
	}
}

func (rt *Router) noteSuccess(addr string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := rt.state[addr]
	if st == nil {
		return
	}
	st.Fails = 0
	st.Alive = true
	st.AsOf = time.Now().UnixNano()
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleForward proxies a classify/distinguish request to an alive
// owner of the model named in the body. The body is read and checked
// with the replicas' own decoder (serve.ReadRequest), so a body a
// replica would refuse before looking up its model gets the same 413
// or 400 here. The body is buffered so a connection error to one owner
// retries the next ring successor with the identical bytes — this is
// what keeps in-flight requests at zero failures when a replica is
// killed: the successor already owns the model (replication ≥ 2), so
// the retry lands on warm weights.
func (rt *Router) handleForward(w http.ResponseWriter, r *http.Request) {
	body, model, ok := serve.ReadRequest(w, r)
	if !ok {
		return
	}
	if model == "" {
		writeError(w, http.StatusBadRequest, "model must be set")
		return
	}
	owners := rt.owners(model)
	if len(owners) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no alive replica owns model %q", model)
		return
	}
	for i, addr := range owners {
		resp, err := rt.cfg.Client.Post(addr+r.URL.Path, "application/json", bytes.NewReader(body))
		if err != nil {
			// Connection-level failure: count it against the replica and
			// retry the next owner with the same body.
			rt.noteFailure(addr)
			if i+1 < len(owners) {
				rt.Retries.Inc()
			}
			continue
		}
		rt.Routed.With(addr).Inc()
		copyResponse(w, resp, addr)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "all %d owner(s) of model %q unreachable", len(owners), model)
}

// copyResponse relays a replica response, stamping which replica
// answered.
func copyResponse(w http.ResponseWriter, resp *http.Response, addr string) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Served-By", addr)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// replicaModelInfo mirrors the fields of serve's /models entries the
// router needs for convergence checks and aggregation.
type replicaModelInfo struct {
	Name    string `json:"name"`
	Path    string `json:"path"`
	Version int    `json:"version"`
}

// loadResult is one owner's outcome in a routed hot reload.
type loadResult struct {
	Replica string `json:"replica"`
	Version int    `json:"version"`
	Error   string `json:"error,omitempty"`
}

// loadResponse acks a routed hot reload: the model, its current
// owners, and the registry version each owner converged at.
type loadResponse struct {
	Name   string       `json:"name"`
	Path   string       `json:"path"`
	Owners []loadResult `json:"owners"`
}

// handleModelsLoad is replicated hot reload: POST the model once to
// the router and it fans the load out to every owning replica, then
// polls each owner's /models until the owner's registry version has
// reached the version the load reported — only then is the reload
// acked, so a 200 means every owner answers for the new weights. The
// body is read as a replica reads its /models body: at most 16 MiB,
// 413 past that.
func (rt *Router) handleModelsLoad(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		Path string `json:"path"`
	}
	if !serve.DecodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.Path == "" {
		writeError(w, http.StatusBadRequest, "name and path must both be set")
		return
	}
	owners := rt.owners(req.Name)
	if len(owners) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no alive replica to own model %q", req.Name)
		return
	}
	// Admit to the catalog first: even if an owner fails now, the
	// repair loop keeps retrying placement until it converges.
	rt.mu.Lock()
	rt.catalog[req.Name] = req.Path
	rt.mu.Unlock()

	results := make([]loadResult, len(owners))
	var wg sync.WaitGroup
	for i, addr := range owners {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			results[i] = rt.pushModel(addr, req.Name, req.Path)
		}(i, addr)
	}
	wg.Wait()
	failed := 0
	for _, res := range results {
		if res.Error != "" {
			failed++
		}
	}
	code := http.StatusOK
	if failed == len(results) {
		code = http.StatusBadGateway
	} else if failed > 0 {
		code = http.StatusMultiStatus
	}
	writeJSON(w, code, loadResponse{Name: req.Name, Path: req.Path, Owners: results})
}

// pushModel loads (name, path) on one replica and waits for its
// registry to converge at (or past) the version the load reported.
func (rt *Router) pushModel(addr, name, path string) loadResult {
	res := loadResult{Replica: addr}
	body, _ := json.Marshal(map[string]string{"name": name, "path": path})
	resp, err := rt.cfg.Client.Post(addr+"/models", "application/json", bytes.NewReader(body))
	if err != nil {
		rt.noteFailure(addr)
		res.Error = err.Error()
		return res
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		res.Error = fmt.Sprintf("replica returned %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		return res
	}
	var info replicaModelInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		res.Error = fmt.Sprintf("decoding load response: %v", err)
		return res
	}
	v, err := rt.awaitVersion(addr, name, info.Version)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Version = v
	rt.mu.Lock()
	if rt.have[addr] == nil {
		rt.have[addr] = map[string]bool{}
	}
	rt.have[addr][name] = true
	rt.mu.Unlock()
	return res
}

// awaitVersion polls addr's /models until name is listed at version ≥
// want. The replica's load is synchronous so this normally converges
// on the first poll; the loop is the contract, not an expectation of
// slowness.
func (rt *Router) awaitVersion(addr, name string, want int) (int, error) {
	deadline := time.Now().Add(rt.cfg.ConvergeTimeout)
	for {
		models, err := rt.fetchModels(addr)
		if err == nil {
			for _, m := range models {
				if m.Name == name && m.Version >= want {
					return m.Version, nil
				}
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("replica %s did not converge on %s@%d within %s", addr, name, want, rt.cfg.ConvergeTimeout)
		}
		select {
		case <-rt.stop:
			return 0, fmt.Errorf("router stopped while awaiting convergence")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (rt *Router) fetchModels(addr string) ([]replicaModelInfo, error) {
	resp, err := rt.cfg.Client.Get(addr + "/models")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replica %s /models returned %d", addr, resp.StatusCode)
	}
	var models []replicaModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		return nil, err
	}
	return models, nil
}

// handleModelsDelete removes a model cluster-wide: out of the catalog
// (so repair stops replacing it) and off every replica that holds it.
func (rt *Router) handleModelsDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rt.mu.Lock()
	_, known := rt.catalog[name]
	delete(rt.catalog, name)
	holders := make([]string, 0, len(rt.have))
	for addr, models := range rt.have {
		if models[name] {
			holders = append(holders, addr)
			delete(models, name)
		}
	}
	rt.mu.Unlock()
	if !known && len(holders) == 0 {
		writeError(w, http.StatusNotFound, "unknown model %q", name)
		return
	}
	for _, addr := range holders {
		req, _ := http.NewRequest(http.MethodDelete, addr+"/models/"+name, nil)
		if resp, err := rt.cfg.Client.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// replicaModels is one replica's slice of the aggregated /models view.
type replicaModels struct {
	Replica string             `json:"replica"`
	Alive   bool               `json:"alive"`
	Models  []replicaModelInfo `json:"models,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// handleModelsList aggregates every replica's /models, annotated with
// the replica that reported it.
func (rt *Router) handleModelsList(w http.ResponseWriter, r *http.Request) {
	out := make([]replicaModels, len(rt.cfg.Replicas))
	var wg sync.WaitGroup
	for i, addr := range rt.cfg.Replicas {
		out[i] = replicaModels{Replica: addr, Alive: rt.alive(addr)}
		if !out[i].Alive {
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			models, err := rt.fetchModels(addr)
			if err != nil {
				out[i].Error = err.Error()
				return
			}
			out[i].Models = models
		}(i, addr)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics renders the router's own instruments, then every alive
// replica's /metrics relabeled with replica="addr" so one scrape of
// the router sees the whole cluster without metric-name collisions.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	rt.mu.RLock()
	aliveN := 0
	for _, st := range rt.state {
		if st.Alive {
			aliveN++
		}
	}
	catalogN := len(rt.catalog)
	rt.mu.RUnlock()
	fmt.Fprintf(&b, "cluster_uptime_seconds %.3f\n", time.Since(rt.started).Seconds())
	fmt.Fprintf(&b, "cluster_replicas %d\n", len(rt.cfg.Replicas))
	fmt.Fprintf(&b, "cluster_replicas_alive %d\n", aliveN)
	fmt.Fprintf(&b, "cluster_models %d\n", catalogN)
	fmt.Fprintf(&b, "cluster_probe_rounds_total %d\n", rt.Probes.Value())
	fmt.Fprintf(&b, "cluster_forward_retries_total %d\n", rt.Retries.Value())
	fmt.Fprintf(&b, "cluster_repairs_total %d\n", rt.Repairs.Value())
	for _, lv := range rt.Routed.Snapshot() {
		fmt.Fprintf(&b, "cluster_routed_total{replica=%q} %d\n", lv.Label, lv.Value)
	}
	for _, addr := range rt.cfg.Replicas {
		if !rt.alive(addr) {
			continue
		}
		resp, err := rt.cfg.Client.Get(addr + "/metrics")
		if err != nil {
			rt.noteFailure(addr)
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
			fmt.Fprintln(&b, relabel(line, addr))
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(b.String()))
}

// relabel injects replica="addr" as the first label of a Prometheus
// text-format line, adding the braces when the metric had no labels.
func relabel(line, replica string) string {
	if line == "" || strings.HasPrefix(line, "#") {
		return line
	}
	tag := fmt.Sprintf("replica=%q", replica)
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return line
	}
	if br := strings.IndexByte(line, '{'); br >= 0 && br < sp {
		return line[:br+1] + tag + "," + line[br+1:]
	}
	return line[:sp] + "{" + tag + "}" + line[sp:]
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	aliveN := 0
	for _, st := range rt.state {
		if st.Alive {
			aliveN++
		}
	}
	rt.mu.RUnlock()
	code := http.StatusOK
	if aliveN == 0 {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   map[bool]string{true: "ok", false: "no-replicas"}[aliveN > 0],
		"replicas": len(rt.cfg.Replicas),
		"alive":    aliveN,
		"uptime":   time.Since(rt.started).Seconds(),
	})
}

// ClusterState is the /cluster/state view: liveness per replica, the
// catalog, and where each catalog model currently routes.
type ClusterState struct {
	Replicas    map[string]ReplicaState `json:"replicas"`
	Catalog     map[string]string       `json:"catalog"`
	Placement   map[string][]string     `json:"placement"`
	Replication int                     `json:"replication"`
	VNodes      int                     `json:"vnodes"`
}

// State snapshots the router's view of the cluster.
func (rt *Router) State() ClusterState {
	rt.mu.RLock()
	st := ClusterState{
		Replicas:    make(map[string]ReplicaState, len(rt.state)),
		Catalog:     make(map[string]string, len(rt.catalog)),
		Placement:   make(map[string][]string, len(rt.catalog)),
		Replication: rt.cfg.Replication,
		VNodes:      rt.cfg.VNodes,
	}
	for addr, s := range rt.state {
		st.Replicas[addr] = *s
	}
	names := make([]string, 0, len(rt.catalog))
	for name, path := range rt.catalog {
		st.Catalog[name] = path
		names = append(names, name)
	}
	rt.mu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		st.Placement[name] = rt.owners(name)
	}
	return st
}

func (rt *Router) handleState(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.State())
}
