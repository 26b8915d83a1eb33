package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/stats"
)

// testModel trains a small but genuinely learning speck-4r
// distinguisher once per test process (≈15ms: accuracy ≈0.74, well
// clear of the 0.5 baseline) and saves it for every test to serve.
var testModel = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "serve-test-model")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "speck4.gob")
	d, err := trainSpeck4(7)
	if err != nil {
		return "", err
	}
	return path, core.SaveDistinguisherFile(path, d, "speck", 4)
})

func trainSpeck4(seed uint64) (*core.Distinguisher, error) {
	s, err := core.NewSpeckScenario(4)
	if err != nil {
		return nil, err
	}
	c, err := core.NewMLPClassifier(s.FeatureLen(), s.Classes(), 16, seed)
	if err != nil {
		return nil, err
	}
	c.Epochs = 3
	return core.Train(s, c, core.TrainConfig{TrainPerClass: 1024, ValPerClass: 512, Seed: seed})
}

func modelPath(t *testing.T) string {
	t.Helper()
	path, err := testModel()
	if err != nil {
		t.Fatalf("training test model: %v", err)
	}
	return path
}

// offline loads the saved model fresh, giving the reference
// PredictBatch the served answers must match bit-for-bit.
func offline(t *testing.T) *core.Distinguisher {
	t.Helper()
	d, err := core.LoadDistinguisherFile(modelPath(t))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sampleRows draws n labelled cipher rows from the scenario.
func sampleRows(d *core.Distinguisher, seed uint64, n int) ([][]float64, []int) {
	r := prng.New(seed)
	rows := make([][]float64, n)
	labels := make([]int, n)
	t := d.Scenario.Classes()
	for i := range rows {
		labels[i] = i % t
		rows[i] = core.Sample(d.Scenario, r, labels[i])
	}
	return rows, labels
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	if _, err := srv.Registry().Load("speck4", modelPath(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
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

func TestClassifyEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	d := offline(t)
	rows, _ := sampleRows(d, 99, 48)

	resp, body := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Model: "speck4", Rows: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got classifyResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Model != "speck4" || got.Version != 1 {
		t.Fatalf("model/version = %s/%d, want speck4/1", got.Model, got.Version)
	}
	want := d.Classifier.PredictBatch(rows)
	if len(got.Classes) != len(want) {
		t.Fatalf("%d classes, want %d", len(got.Classes), len(want))
	}
	for i := range want {
		if got.Classes[i] != want[i] {
			t.Fatalf("class %d = %d, served differs from offline PredictBatch %d", i, got.Classes[i], want[i])
		}
	}
}

func TestClassifyHexRows(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	d := offline(t)
	rows, _ := sampleRows(d, 123, 16)
	hex := make([]string, len(rows))
	for i, row := range rows {
		hex[i] = rowToHex(row)
	}
	resp, body := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Model: "speck4", Hex: hex})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got classifyResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want := d.Classifier.PredictBatch(rows)
	for i := range want {
		if got.Classes[i] != want[i] {
			t.Fatalf("hex class %d = %d, want %d", i, got.Classes[i], want[i])
		}
	}
}

func TestDistinguishCipherAndRandom(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	d := offline(t)

	// Cipher oracle rows: the served verdict and accuracy must equal
	// the offline computation exactly.
	rows, labels := sampleRows(d, 7002, 256)
	check := func(rows [][]float64, labels []int) distinguishResponse {
		resp, body := postJSON(t, ts.URL+"/v1/distinguish",
			classifyRequest{Model: "speck4", Rows: rows, Labels: labels})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var got distinguishResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		pred := d.Classifier.PredictBatch(rows)
		wantAcc := stats.Accuracy(pred, labels)
		wantVerdict, err := stats.Decide(d.Accuracy, 2, wantAcc, len(rows), 3)
		if err != nil {
			t.Fatal(err)
		}
		if got.Accuracy != wantAcc || got.Verdict != wantVerdict.String() {
			t.Fatalf("got acc %v verdict %s, offline says %v %s", got.Accuracy, got.Verdict, wantAcc, wantVerdict)
		}
		return got
	}
	if got := check(rows, labels); got.Verdict != "CIPHER" {
		t.Fatalf("cipher oracle verdict = %s, want CIPHER", got.Verdict)
	}

	// Random oracle rows: same queries against a random function.
	r := prng.New(512)
	rnd := make([][]float64, 256)
	for i := range rnd {
		rnd[i] = core.RandomSample(d.Scenario, r)
	}
	if got := check(rnd, labels); got.Verdict != "RANDOM" {
		t.Fatalf("random oracle verdict = %s, want RANDOM", got.Verdict)
	}
}

// TestClassifyConcurrent hammers /v1/classify from 32 goroutines and
// checks every response against serial offline inference (this test is
// in the -race gate).
func TestClassifyConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{Scheduler: SchedulerConfig{
		MaxBatch: 64, MaxDelay: time.Millisecond, Workers: 4, QueueDepth: 1024,
	}})
	d := offline(t)

	const goroutines = 32
	const perG = 6
	const rowsPer = 4
	type job struct {
		rows [][]float64
		want []int
	}
	jobs := make([][]job, goroutines)
	for g := range jobs {
		jobs[g] = make([]job, perG)
		for j := range jobs[g] {
			rows, _ := sampleRows(d, uint64(1000+g*perG+j), rowsPer)
			jobs[g][j] = job{rows: rows, want: d.Classifier.PredictBatch(rows)}
		}
	}

	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j, jb := range jobs[g] {
				buf, _ := json.Marshal(classifyRequest{Model: "speck4", Rows: jb.rows})
				resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(buf))
				if err != nil {
					errc <- err
					return
				}
				var got classifyResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("goroutine %d job %d: status %d", g, j, resp.StatusCode)
					return
				}
				for i := range jb.want {
					if got.Classes[i] != jb.want[i] {
						errc <- fmt.Errorf("goroutine %d job %d row %d: got %d, serial inference says %d",
							g, j, i, got.Classes[i], jb.want[i])
						return
					}
				}
			}
			errc <- nil
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestHotReloadBumpsVersion(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	d := offline(t)
	rows, _ := sampleRows(d, 42, 8)

	// Retrain with a different seed and swap it in under the same name.
	d2, err := trainSpeck4(8)
	if err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(t.TempDir(), "speck4-v2.gob")
	if err := core.SaveDistinguisherFile(path2, d2, "speck", 4); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/models", map[string]string{"name": "speck4", "path": path2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	var info modelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("reloaded version = %d, want 2", info.Version)
	}
	if e, _ := srv.Registry().Get("speck4"); e.Version != 2 {
		t.Fatalf("registry version = %d, want 2", e.Version)
	}

	// Classifications now come from the new weights.
	off2, err := core.LoadDistinguisherFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	want := off2.Classifier.PredictBatch(rows)
	resp, body = postJSON(t, ts.URL+"/v1/classify", classifyRequest{Model: "speck4", Rows: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d: %s", resp.StatusCode, body)
	}
	var got classifyResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 {
		t.Fatalf("classify served version %d, want 2", got.Version)
	}
	for i := range want {
		if got.Classes[i] != want[i] {
			t.Fatalf("class %d = %d, new model says %d", i, got.Classes[i], want[i])
		}
	}
}

func TestModelsListAndDelete(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getURL(t, ts.URL+"/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	var infos []modelInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "speck4" || infos[0].Scenario != "speck32-4r-real-vs-random" {
		t.Fatalf("list = %+v", infos)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/models/speck4", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d, want 204", resp2.StatusCode)
	}
	resp2, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status %d, want 404", resp2.StatusCode)
	}
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Scheduler: SchedulerConfig{MaxBatch: 32}})
	d := offline(t)
	rows, labels := sampleRows(d, 1, 4)

	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"bad json", "/v1/classify", "not json", http.StatusBadRequest},
		{"unknown model", "/v1/classify", classifyRequest{Model: "nope", Rows: rows}, http.StatusNotFound},
		{"no rows", "/v1/classify", classifyRequest{Model: "speck4"}, http.StatusBadRequest},
		{"rows and hex", "/v1/classify", classifyRequest{Model: "speck4", Rows: rows, Hex: []string{"00"}}, http.StatusBadRequest},
		{"ragged row", "/v1/classify", classifyRequest{Model: "speck4", Rows: [][]float64{{0, 1}}}, http.StatusBadRequest},
		{"bad hex", "/v1/classify", classifyRequest{Model: "speck4", Hex: []string{"zz"}}, http.StatusBadRequest},
		{"short hex", "/v1/classify", classifyRequest{Model: "speck4", Hex: []string{"00"}}, http.StatusBadRequest},
		{"oversize", "/v1/classify", classifyRequest{Model: "speck4", Rows: manyRows(d, 33)}, http.StatusRequestEntityTooLarge},
		{"oversize body", "/v1/classify", classifyRequest{Model: strings.Repeat("m", 17<<20), Rows: rows}, http.StatusRequestEntityTooLarge},
		{"oversize before row checks", "/v1/classify", classifyRequest{Model: "speck4", Hex: append(manyHex(32), "zz")}, http.StatusRequestEntityTooLarge},
		{"label count", "/v1/distinguish", classifyRequest{Model: "speck4", Rows: rows, Labels: labels[:2]}, http.StatusBadRequest},
		{"label range", "/v1/distinguish", classifyRequest{Model: "speck4", Rows: rows, Labels: []int{0, 1, 2, 1}}, http.StatusBadRequest},
		{"load missing fields", "/models", map[string]string{"name": "x"}, http.StatusBadRequest},
		{"load bad path", "/models", map[string]string{"name": "x", "path": "/nonexistent.gob"}, http.StatusUnprocessableEntity},
		{"load bad json", "/models", "nope", http.StatusBadRequest},
	}
	for _, tc := range cases {
		var resp *http.Response
		var body []byte
		if s, ok := tc.body.(string); ok {
			r, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(s))
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			resp = r
		} else {
			resp, body = postJSON(t, ts.URL+tc.url, tc.body)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var e errorResponse
		if body != nil {
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("%s: error body %q not a JSON error", tc.name, body)
			}
		}
	}
}

// manyHex returns n well-formed 32-bit hex rows.
func manyHex(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "00000000"
	}
	return out
}

func manyRows(d *core.Distinguisher, n int) [][]float64 {
	rows, _ := sampleRows(d, 5, n)
	return rows
}

// TestDistinguishRequiresAdvantage serves a model whose recorded
// offline accuracy is at the baseline; the verdict computation must
// fail with 422 rather than divide the baseline advantage by zero.
func TestDistinguishRequiresAdvantage(t *testing.T) {
	d := offline(t)
	d.Accuracy = 0.5
	path := filepath.Join(t.TempDir(), "flat.gob")
	if err := core.SaveDistinguisherFile(path, d, "speck", 4); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	defer srv.Close()
	if _, err := srv.Registry().Load("flat", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rows, labels := sampleRows(d, 3, 8)
	resp, body := postJSON(t, ts.URL+"/v1/distinguish", classifyRequest{Model: "flat", Rows: rows, Labels: labels})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", resp.StatusCode, body)
	}
}

// TestOverloadReturns429 uses a server whose scheduler is never
// started, so the queue fills deterministically and the handler must
// shed with 429 + Retry-After.
func TestOverloadReturns429(t *testing.T) {
	srv := newServer(Config{Scheduler: SchedulerConfig{QueueDepth: 1}})
	if _, err := srv.Registry().Load("speck4", modelPath(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.sched.queue <- &task{} // occupy the only queue slot

	d := offline(t)
	rows, _ := sampleRows(d, 9, 2)
	resp, body := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Model: "speck4", Rows: rows})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	if srv.sched.Shed.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", srv.sched.Shed.Value())
	}
	// The metrics endpoint reflects the shed and the queue depth.
	_, mbody := getURL(t, ts.URL+"/metrics")
	for _, want := range []string{"served_shed_total 1", "served_queue_depth 1"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %q:\n%s", want, mbody)
		}
	}
}

// TestDrainingReturns503 checks the Submit-after-Close path.
func TestDrainingReturns503(t *testing.T) {
	srv := New(Config{})
	if _, err := srv.Registry().Load("speck4", modelPath(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()
	d := offline(t)
	rows, _ := sampleRows(d, 9, 2)
	resp, body := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Model: "speck4", Rows: rows})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
}

// TestRequestTimeoutReturns504: with a nanosecond deadline and a long
// coalescing delay, the request deadline expires while queued.
func TestRequestTimeoutReturns504(t *testing.T) {
	_, ts := newTestServer(t, Config{
		RequestTimeout: time.Nanosecond,
		Scheduler:      SchedulerConfig{MaxDelay: 50 * time.Millisecond},
	})
	d := offline(t)
	rows, _ := sampleRows(d, 9, 2)
	resp, body := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Model: "speck4", Rows: rows})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	d := offline(t)
	rows, _ := sampleRows(d, 11, 8)
	if resp, _ := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Model: "speck4", Rows: rows}); resp.StatusCode != 200 {
		t.Fatalf("classify failed: %d", resp.StatusCode)
	}
	resp, body := getURL(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"models":1`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	_, body = getURL(t, ts.URL+"/metrics")
	for _, want := range []string{
		`served_requests_total{endpoint="classify"} 1`,
		"served_batches_total 1",
		"served_batch_size_sum 8",
		`served_latency_seconds{endpoint="classify",quantile="0.5"}`,
		`served_batch_size_bucket{le="+Inf"} 1`,
		"served_models 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := getURL(t, ts.URL+"/v1/classify")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/classify = %d, want 405", resp.StatusCode)
	}
}

func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Load("", "x.gob"); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := r.Load("x", "/nonexistent.gob"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, ok := r.Get("x"); ok {
		t.Fatal("Get on empty registry returned an entry")
	}
	if r.Remove("x") {
		t.Fatal("Remove on empty registry returned true")
	}
	if r.Len() != 0 || len(r.List()) != 0 {
		t.Fatal("empty registry not empty")
	}
}

func TestRegistryListSorted(t *testing.T) {
	r := NewRegistry()
	path := modelPathT(t)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := r.Load(name, path); err != nil {
			t.Fatal(err)
		}
	}
	got := r.List()
	if len(got) != 3 || got[0].Name != "alpha" || got[1].Name != "mid" || got[2].Name != "zeta" {
		names := make([]string, len(got))
		for i, e := range got {
			names[i] = e.Name
		}
		t.Fatalf("list order = %v", names)
	}
}

func modelPathT(t *testing.T) string { return modelPath(t) }

// TestSchedulerStopDrains races Stop against in-flight submits: every
// Submit must get a definitive answer (a result or ErrStopped), and
// Stop must return with nothing stuck.
func TestSchedulerStopDrains(t *testing.T) {
	srv := New(Config{Scheduler: SchedulerConfig{MaxBatch: 8, MaxDelay: time.Millisecond, Workers: 2}})
	entry, err := srv.Registry().Load("speck4", modelPath(t))
	if err != nil {
		t.Fatal(err)
	}
	d := offline(t)
	rows, _ := sampleRows(d, 21, 2)
	want := d.Classifier.PredictBatch(rows)

	const n = 64
	results := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			classes, err := srv.sched.Submit(t.Context(), entry, rows)
			if err != nil {
				if errors.Is(err, ErrStopped) {
					results <- nil // shed at the drain boundary is a definitive answer
					return
				}
				results <- err
				return
			}
			for j := range want {
				if classes[j] != want[j] {
					results <- fmt.Errorf("drained result differs at %d", j)
					return
				}
			}
			results <- nil
		}()
	}
	srv.Close() // races the submits; must not lose any
	wg.Wait()
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.sched.Submit(t.Context(), entry, rows); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit after Stop = %v, want ErrStopped", err)
	}
	srv.Close() // second Close is a no-op
}
