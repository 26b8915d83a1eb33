package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/serve"
)

// testModel trains one small speck-4r distinguisher per test process,
// the same reference model the serve tests use, so routed answers can
// be checked bit-for-bit against offline PredictBatch.
var testModel = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "cluster-test-model")
	if err != nil {
		return "", err
	}
	s, err := core.NewSpeckScenario(4)
	if err != nil {
		return "", err
	}
	c, err := core.NewMLPClassifier(s.FeatureLen(), s.Classes(), 16, 7)
	if err != nil {
		return "", err
	}
	c.Epochs = 3
	d, err := core.Train(s, c, core.TrainConfig{TrainPerClass: 1024, ValPerClass: 512, Seed: 7})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "speck4.gob")
	return path, core.SaveDistinguisherFile(path, d, "speck", 4)
})

func modelPath(t testing.TB) string {
	t.Helper()
	path, err := testModel()
	if err != nil {
		t.Fatalf("training test model: %v", err)
	}
	return path
}

func offline(t testing.TB) *core.Distinguisher {
	t.Helper()
	d, err := core.LoadDistinguisherFile(modelPath(t))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sampleRows(d *core.Distinguisher, seed uint64, n int) ([][]float64, []int) {
	r := prng.New(seed)
	rows := make([][]float64, n)
	labels := make([]int, n)
	cls := d.Scenario.Classes()
	for i := range rows {
		labels[i] = i % cls
		rows[i] = core.Sample(d.Scenario, r, labels[i])
	}
	return rows, labels
}

// replica is one served instance under test: the server plus its
// listener, closable independently to simulate a crash.
type replica struct {
	srv *serve.Server
	ts  *httptest.Server
}

func (r *replica) kill() { r.ts.CloseClientConnections(); r.ts.Close() }

// newCluster starts n empty replicas and a router over them. The
// router's maintenance loop is NOT started; tests drive tick()
// directly or call Start themselves.
func newCluster(t testing.TB, n int, mod func(*Config)) (*Router, []*replica) {
	t.Helper()
	reps := make([]*replica, n)
	addrs := make([]string, n)
	for i := range reps {
		srv := serve.New(serve.Config{})
		ts := httptest.NewServer(srv.Handler())
		reps[i] = &replica{srv: srv, ts: ts}
		addrs[i] = ts.URL
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
	}
	cfg := Config{Replicas: addrs, Replication: 2, VNodes: 32, ConvergeTimeout: 2 * time.Second}
	if mod != nil {
		mod(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt, reps
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// loadViaRouter admits the test model through the router and returns
// the converged owner addresses.
func loadViaRouter(t testing.TB, routerURL string) []string {
	t.Helper()
	resp, body := postJSON(t, routerURL+"/models", map[string]string{"name": "speck4", "path": modelPath(t)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed load: %d %s", resp.StatusCode, body)
	}
	var ack loadResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	owners := make([]string, 0, len(ack.Owners))
	for _, o := range ack.Owners {
		if o.Error != "" {
			t.Fatalf("owner %s failed: %s", o.Replica, o.Error)
		}
		if o.Version < 1 {
			t.Fatalf("owner %s acked without a converged version: %+v", o.Replica, o)
		}
		owners = append(owners, o.Replica)
	}
	return owners
}

// replicaHasModel asks a replica directly whether it serves name.
func replicaHasModel(t testing.TB, addr, name string) bool {
	t.Helper()
	resp, err := http.Get(addr + "/models")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var models []replicaModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		if m.Name == name {
			return true
		}
	}
	return false
}

// TestRoutedHotReloadConverges: one POST to the router places the
// model on exactly Replication owners — the ring's owners, nobody
// else — and acks only after each owner lists it.
func TestRoutedHotReloadConverges(t *testing.T) {
	rt, reps := newCluster(t, 3, nil)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	owners := loadViaRouter(t, ts.URL)
	if len(owners) != 2 {
		t.Fatalf("model placed on %v, want 2 owners", owners)
	}
	want := rt.owners("speck4")
	for i := range owners {
		if owners[i] != want[i] {
			t.Fatalf("ack owners %v != ring owners %v", owners, want)
		}
	}
	ownerSet := map[string]bool{}
	for _, o := range owners {
		ownerSet[o] = true
	}
	for _, rep := range reps {
		if got, want := replicaHasModel(t, rep.ts.URL, "speck4"), ownerSet[rep.ts.URL]; got != want {
			t.Fatalf("replica %s has model = %v, want %v", rep.ts.URL, got, want)
		}
	}

	// The aggregated listing reports the same placement.
	resp, body := postJSON(t, ts.URL+"/models", map[string]string{"name": "speck4", "path": modelPath(t)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	var ack loadResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	for _, o := range ack.Owners {
		if o.Version < 2 {
			t.Fatalf("reload did not bump version on %s: %+v", o.Replica, o)
		}
	}
}

// classifyVia routes one classify through the router and returns the
// classes plus which replica answered.
func classifyVia(t testing.TB, routerURL string, rows [][]float64) ([]int, string) {
	t.Helper()
	buf, _ := json.Marshal(map[string]any{"model": "speck4", "rows": rows})
	resp, err := http.Post(routerURL+"/v1/classify", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("routed classify: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		Classes []int `json:"classes"`
	}
	if resp.StatusCode != http.StatusOK {
		var raw bytes.Buffer
		raw.ReadFrom(resp.Body)
		t.Fatalf("routed classify: %d %s", resp.StatusCode, raw.String())
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Classes, resp.Header.Get("X-Served-By")
}

// TestClusterFailover is the e2e: 3 replicas, model on 2 of them;
// killing the primary owner loses zero requests (the retry path lands
// on the successor immediately), the prober drains the dead replica
// within one interval, repair re-replicates onto the remaining
// replica, and every answer along the way is bit-identical to offline
// PredictBatch.
func TestClusterFailover(t *testing.T) {
	rt, reps := newCluster(t, 3, func(c *Config) {
		c.ProbeInterval = 25 * time.Millisecond
		c.FailAfter = 2
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	rt.Start()

	owners := loadViaRouter(t, ts.URL)
	d := offline(t)
	rows, _ := sampleRows(d, 42, 32)
	want := d.Classifier.PredictBatch(rows)

	got, servedBy := classifyVia(t, ts.URL, rows)
	if servedBy != owners[0] {
		t.Fatalf("served by %s, want primary owner %s", servedBy, owners[0])
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pre-kill class %d = %d, offline says %d", i, got[i], want[i])
		}
	}

	// Kill the primary owner. Requests must keep succeeding with
	// identical answers throughout the transition — first via the
	// retry path, then via direct routing once the prober drains it.
	var primary *replica
	for _, rep := range reps {
		if rep.ts.URL == owners[0] {
			primary = rep
		}
	}
	primary.kill()
	for i := 0; i < 20; i++ {
		got, servedBy = classifyVia(t, ts.URL, rows)
		if servedBy != owners[1] {
			t.Fatalf("request %d after kill served by %q, want successor %s", i, servedBy, owners[1])
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("request %d after kill: class %d = %d, offline says %d", i, j, got[j], want[j])
			}
		}
	}

	// The prober marks the replica dead within ~one interval...
	deadline := time.Now().Add(2 * time.Second)
	for rt.State().Replicas[owners[0]].Alive {
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the killed replica dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// ...and repair re-replicates the model onto the surviving
	// non-owner so replication is back at 2.
	third := ""
	for _, rep := range reps {
		if rep.ts.URL != owners[0] && rep.ts.URL != owners[1] {
			third = rep.ts.URL
		}
	}
	deadline = time.Now().Add(2 * time.Second)
	for !replicaHasModel(t, third, "speck4") {
		if time.Now().After(deadline) {
			t.Fatalf("repair never pushed the model to %s", third)
		}
		time.Sleep(5 * time.Millisecond)
	}
	place := rt.State().Placement["speck4"]
	if len(place) != 2 || place[0] != owners[1] {
		t.Fatalf("post-failover placement %v, want [%s %s]", place, owners[1], third)
	}

	got, servedBy = classifyVia(t, ts.URL, rows)
	if servedBy != owners[1] {
		t.Fatalf("post-drain served by %s, want %s", servedBy, owners[1])
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-drain class %d = %d, offline says %d", i, got[i], want[i])
		}
	}
	if rt.Retries.Value() == 0 {
		t.Fatal("failover happened without a recorded retry; the kill test proved nothing")
	}
}

// TestGossipMerge: a router that watched a replica die tells a peer
// that hasn't probed yet; the peer adopts the newer observation, and
// an older observation never overwrites a newer one.
func TestGossipMerge(t *testing.T) {
	addrs := []string{"http://replica-a", "http://replica-b"}
	a, err := NewRouter(Config{Replicas: addrs})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRouter(Config{Replicas: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()

	// A observes replica-a dead, strictly newer than B's boot state.
	a.noteFailure(addrs[0])
	a.noteFailure(addrs[0])
	if a.statesCopy()[addrs[0]].Alive {
		t.Fatal("two failures (FailAfter 2) should mark dead")
	}

	bts := httptest.NewServer(b.Handler())
	defer bts.Close()
	a.cfg.Peers = []string{bts.URL}
	a.gossipAll()
	if got := b.statesCopy()[addrs[0]]; got.Alive {
		t.Fatalf("peer did not adopt the newer dead observation: %+v", got)
	}
	if got := b.statesCopy()[addrs[1]]; !got.Alive {
		t.Fatalf("gossip flipped an unrelated replica: %+v", got)
	}

	// Stale news (AsOf in the past) must not resurrect the replica.
	stale := map[string]ReplicaState{addrs[0]: {Alive: true, AsOf: 1}}
	buf, _ := json.Marshal(stale)
	resp, err := http.Post(bts.URL+"/cluster/gossip", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var merged map[string]ReplicaState
	if err := json.NewDecoder(resp.Body).Decode(&merged); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if merged[addrs[0]].Alive {
		t.Fatal("stale gossip resurrected a dead replica")
	}

	// Unknown replicas in a gossip payload are ignored, not adopted.
	foreign := map[string]ReplicaState{"http://not-ours": {Alive: false, AsOf: time.Now().UnixNano()}}
	buf, _ = json.Marshal(foreign)
	resp, err = http.Post(bts.URL+"/cluster/gossip", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := b.statesCopy()["http://not-ours"]; ok {
		t.Fatal("gossip grew the replica set")
	}
}

func TestRelabel(t *testing.T) {
	for in, want := range map[string]string{
		"served_models 3":                         `served_models{replica="http://r1"} 3`,
		`served_requests_total{endpoint="c"} 4`:   `served_requests_total{replica="http://r1",endpoint="c"} 4`,
		"# HELP served_models loaded model count": "# HELP served_models loaded model count",
		"":        "",
		"nospace": "nospace",
		"served_batch_size_bucket{le=\"+Inf\"} 12": `served_batch_size_bucket{replica="http://r1",le="+Inf"} 12`,
		"served_uptime_seconds 1.250":              `served_uptime_seconds{replica="http://r1"} 1.250`,
	} {
		if got := relabel(in, "http://r1"); got != want {
			t.Errorf("relabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestAggregatedMetrics: one scrape of the router carries its own
// gauges plus each alive replica's metrics under a replica label.
func TestAggregatedMetrics(t *testing.T) {
	rt, reps := newCluster(t, 2, nil)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	loadViaRouter(t, ts.URL)
	d := offline(t)
	rows, _ := sampleRows(d, 3, 8)
	classifyVia(t, ts.URL, rows)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	text := raw.String()
	for _, want := range []string{
		"cluster_replicas 2",
		"cluster_replicas_alive 2",
		"cluster_models 1",
		fmt.Sprintf("served_models{replica=%q} ", reps[0].ts.URL),
		fmt.Sprintf("served_models{replica=%q} ", reps[1].ts.URL),
		"cluster_routed_total{replica=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("aggregated metrics missing %q:\n%s", want, text)
		}
	}
}

// TestAggregatedModels: the router's GET /models reports every
// replica's listing, annotated with which replica holds what.
func TestAggregatedModels(t *testing.T) {
	rt, reps := newCluster(t, 3, nil)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	owners := loadViaRouter(t, ts.URL)
	ownerSet := map[string]bool{}
	for _, o := range owners {
		ownerSet[o] = true
	}

	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing []replicaModels
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing) != len(reps) {
		t.Fatalf("listing covers %d replicas, want %d", len(listing), len(reps))
	}
	for _, rm := range listing {
		if !rm.Alive || rm.Error != "" {
			t.Fatalf("replica %s reported %+v", rm.Replica, rm)
		}
		has := len(rm.Models) == 1 && rm.Models[0].Name == "speck4"
		if has != ownerSet[rm.Replica] {
			t.Fatalf("replica %s lists %+v, owner=%v", rm.Replica, rm.Models, ownerSet[rm.Replica])
		}
	}

	if got := rt.Ring().Nodes(); len(got) != 3 {
		t.Fatalf("Ring().Nodes() = %v", got)
	}
}

func TestGossipRejectsBadBody(t *testing.T) {
	rt, _ := newCluster(t, 2, nil)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/cluster/gossip", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad gossip body = %d, want 400", resp.StatusCode)
	}
}

func TestRouterStateAndHealth(t *testing.T) {
	rt, _ := newCluster(t, 2, nil)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	loadViaRouter(t, ts.URL)

	resp, err := http.Get(ts.URL + "/cluster/state")
	if err != nil {
		t.Fatal(err)
	}
	var st ClusterState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Replicas) != 2 || len(st.Placement["speck4"]) != 2 || st.Replication != 2 {
		t.Fatalf("state = %+v", st)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestRouterErrorPaths(t *testing.T) {
	rt, reps := newCluster(t, 2, nil)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	for _, c := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/models", "{not json", http.StatusBadRequest},
		{"POST", "/models", `{"name":"x"}`, http.StatusBadRequest},
		{"POST", "/models", `{"name":"x","path":"/no/such/file.gob"}`, http.StatusBadGateway},
		{"POST", "/v1/classify", "{not json", http.StatusBadRequest},
		{"POST", "/v1/classify", `{"rows":[[0]]}`, http.StatusBadRequest},                           // no model name
		{"POST", "/v1/classify", `{"model":"ghost","rows":[[0]]}`, http.StatusNotFound},             // replica 404 passes through
		{"POST", "/v1/classify", `{"model":"ghost","rows":[[0]],"extra":1}`, http.StatusBadRequest}, // unknown key, as a replica answers
		{"POST", "/v1/classify", `{"model":"ghost","rows":[[0`, http.StatusBadRequest},              // truncated body
		{"DELETE", "/models/ghost2", "", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s (%q) = %d, want %d", c.method, c.path, c.body, resp.StatusCode, c.want)
		}
	}

	// Routed delete removes the model from its owners.
	loadViaRouter(t, ts.URL)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/models/speck4", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("routed delete = %d", resp.StatusCode)
	}
	for _, rep := range reps {
		if replicaHasModel(t, rep.ts.URL, "speck4") {
			t.Fatalf("replica %s still lists the deleted model", rep.ts.URL)
		}
	}

	// NewRouter without replicas is refused.
	if _, err := NewRouter(Config{}); err == nil {
		t.Fatal("NewRouter accepted an empty replica set")
	}
}

// TestRouterBodyReadError: a body that breaks off mid-read, as when
// the client disconnects, is a 400 as at a replica, not a 413.
func TestRouterBodyReadError(t *testing.T) {
	rt, _ := newCluster(t, 1, nil)
	body := io.MultiReader(strings.NewReader(`{"model":"speck4","rows":[[0`), iotest.ErrReader(io.ErrUnexpectedEOF))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", body))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("broken body = %d, want 400 (%s)", rec.Code, rec.Body)
	}
}

// TestProbeReusesConnection: health probes read each /healthz answer
// out, so the router's transport keeps one connection per replica
// instead of dialing a new one every probe round.
func TestProbeReusesConnection(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	var dials atomic.Int32
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	rt, err := NewRouter(Config{Replicas: []string{ts.URL}, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rt.tick()
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("5 probe rounds opened %d connections to the replica, want 1", n)
	}
}

// TestRouterAllOwnersDown: when every owner is unreachable, classify
// degrades to 503, and once the prober drains the whole cluster the
// router reports it has nowhere to route.
func TestRouterAllOwnersDown(t *testing.T) {
	rt, reps := newCluster(t, 2, func(c *Config) {
		c.FailAfter = 100 // keep presumed-alive through the first errors
		c.Client = &http.Client{Timeout: 500 * time.Millisecond}
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	loadViaRouter(t, ts.URL)
	for _, rep := range reps {
		rep.kill()
	}
	buf, _ := json.Marshal(map[string]any{"model": "speck4", "rows": [][]float64{{0}}})
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-down classify = %d, want 503", resp.StatusCode)
	}

	// Drain both via probes: now the ring has no alive owner at all
	// and /healthz degrades too.
	rt.cfg.FailAfter = 1
	rt.tick()
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained classify = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained healthz = %d, want 503", resp.StatusCode)
	}
}

// BenchmarkRouterClassify measures the full routed path: router
// handler → HTTP to the replica → micro-batched inference and back.
func BenchmarkRouterClassify(b *testing.B) {
	srv := serve.New(serve.Config{Scheduler: serve.SchedulerConfig{
		MaxBatch: 256, MaxDelay: 200 * time.Microsecond, Workers: 4, QueueDepth: 4096,
	}})
	defer srv.Close()
	rts := httptest.NewServer(srv.Handler())
	defer rts.Close()
	rt, err := NewRouter(Config{Replicas: []string{rts.URL}, Replication: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	resp, body := postJSON(b, router.URL+"/models", map[string]string{"name": "speck4", "path": modelPath(b)})
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("load: %d %s", resp.StatusCode, body)
	}
	d := offline(b)
	rows, _ := sampleRows(d, 5, 64)
	payload, _ := json.Marshal(map[string]any{"model": "speck4", "rows": rows})
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(router.URL+"/v1/classify", "application/json", bytes.NewReader(payload))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
}
