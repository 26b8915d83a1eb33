package main

// serve-classify and serve-distinguish: request loops over loopback
// HTTP against a serve.Server configured like cmd/served, the second
// through a cluster.Router to a replica with a file-backed ledger.
// Traced, the same bodies go through nested entry points — loopback
// HTTP, the handler in process, Scheduler.Submit, the forward pass —
// and adjacent levels are subtracted.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bits"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/serve"
	"repro/internal/stats"
)

const (
	serveRounds     = 6
	modelName       = "gimli-hash-6"
	classifyRows    = 64
	distinguishRows = 256
	// bodyPool is how many distinct request bodies a run generates and
	// cycles through.
	bodyPool = 128
	// distinguishRate is serve-distinguish's open-loop rate: about half
	// of the path's closed-loop capacity with NumCPU connections, which
	// was 1180–1270 req/s on a 2-CPU Xeon (AVX2, Go 1.24) when this
	// benchmark was introduced.
	distinguishRate = 600
	requestTimeout  = 5 * time.Second
	probeInterval   = time.Second
	// warmup runs the request loop, untimed, before the measured phase,
	// so connections, scheduler scratch and the heap are warm.
	warmup = time.Second
	// traceRounds is how many turns each traced level takes, so a drift
	// in machine speed during the traced half spreads over all levels.
	traceRounds = 4
)

// schedulerConfig and ledgerConfig are cmd/served's defaults.
var (
	schedulerConfig = serve.SchedulerConfig{MaxBatch: 256, MaxDelay: 2 * time.Millisecond, Workers: 2, QueueDepth: 256}
	ledgerConfig    = ledger.Config{MaxBatch: 64, MaxDelay: 500 * time.Millisecond, Sync: true}
)

// httpListener is an http.Server on an ephemeral loopback port.
type httpListener struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*httpListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &httpListener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close shuts the listener down and waits for its serve goroutine.
func (l *httpListener) close() error {
	if l == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// stack is one set-up instance of the serving tier.
type stack struct {
	srv     *serve.Server
	replica *httpListener
	led     *ledger.Ledger
	logPath string
	anchor  string
	rt      *cluster.Router
	router  *httpListener
	model   string // model file path
	front   string // base URL the workload posts to
}

// close stops the stack outside-in, so every accepted request is
// answered before the layer below goes away.
func (s *stack) close() error {
	var errs []error
	errs = append(errs, s.router.close())
	if s.rt != nil {
		s.rt.Stop()
	}
	errs = append(errs, s.replica.close())
	if s.srv != nil {
		s.srv.Close()
	}
	if s.led != nil {
		errs = append(errs, s.led.Close())
	}
	return errors.Join(errs...)
}

// startStack trains and saves the model, then starts the replica (with
// a ledger when routed) and, when routed, a router with replication 1
// in front of it, and admits the model through the front door.
func startStack(dir string, i int, seed uint64, routed bool) (_ *stack, err error) {
	st := &stack{model: filepath.Join(dir, fmt.Sprintf("model-%d.gob", i))}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	d, err := trainDistinguisher(serveRounds, seed)
	if err != nil {
		return nil, err
	}
	if err := core.SaveDistinguisherFile(st.model, d, cellTarget, serveRounds); err != nil {
		return nil, err
	}
	cfg := serve.Config{Scheduler: schedulerConfig, RequestTimeout: requestTimeout}
	if routed {
		st.logPath = filepath.Join(dir, fmt.Sprintf("ledger-%d.log", i))
		st.anchor = filepath.Join(dir, fmt.Sprintf("ledger-%d.anchor", i))
		lc := ledgerConfig
		lc.AnchorPath = st.anchor
		if st.led, err = ledger.Open(st.logPath, lc); err != nil {
			return nil, err
		}
		cfg.Ledger = st.led
	}
	st.srv = serve.New(cfg)
	if st.replica, err = listen(st.srv.Handler()); err != nil {
		return nil, err
	}
	st.front = st.replica.url
	if routed {
		st.rt, err = cluster.NewRouter(cluster.Config{
			Replicas:      []string{st.replica.url},
			Replication:   1,
			ProbeInterval: probeInterval,
			Client:        &http.Client{Timeout: requestTimeout},
		})
		if err != nil {
			return nil, err
		}
		st.rt.Start()
		if st.router, err = listen(st.rt.Handler()); err != nil {
			return nil, err
		}
		st.front = st.router.url
	}
	body, err := json.Marshal(map[string]string{"name": modelName, "path": st.model})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(st.front+"/models", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("admitting model: %s: %s", resp.Status, msg)
	}
	return st, nil
}

// request is one generated request with everything needed to check
// its answer.
type request struct {
	body    []byte
	rows    [][]float64 // the feature rows the body encodes
	classes []int       // offline PredictBatch on rows
	verdict string      // offline stats.Decide (distinguish only)
}

// classifyRequests builds float-JSON classify bodies of classifyRows
// rows from the workload seed.
func classifyRequests(d *core.Distinguisher, seed uint64) ([]request, error) {
	data := core.GenerateDataset(d.Scenario, bodyPool*classifyRows/d.Scenario.Classes(), prng.New(seed))
	rows := data.Rows()
	reqs := make([]request, bodyPool)
	for b := range reqs {
		rs := rows[b*classifyRows : (b+1)*classifyRows]
		body, err := json.Marshal(struct {
			Model string      `json:"model"`
			Rows  [][]float64 `json:"rows"`
		}{modelName, rs})
		if err != nil {
			return nil, err
		}
		reqs[b] = request{body: body, rows: rs, classes: d.Classifier.PredictBatch(rs)}
	}
	return reqs, nil
}

// distinguishRequests builds hex distinguish bodies: per body a secret
// coin picks the cipher or the random oracle, which answers
// distinguishRows queries cycling the classes, as in the online phase.
func distinguishRequests(d *core.Distinguisher, seed uint64) ([]request, error) {
	t := d.Scenario.Classes()
	reqs := make([]request, bodyPool)
	for b, s := range seedList(seed, bodyPool) {
		r := prng.New(s)
		var o core.Oracle = core.RandomOracle{S: d.Scenario}
		if r.Intn(2) == 1 {
			o = core.CipherOracle{S: d.Scenario}
		}
		rows := make([][]float64, distinguishRows)
		hexRows := make([]string, distinguishRows)
		labels := make([]int, distinguishRows)
		for k := range rows {
			labels[k] = k % t
			rows[k] = o.Query(r, labels[k])
			hexRows[k] = bits.Hex(bits.FloatsToBytes(rows[k]))
		}
		body, err := json.Marshal(struct {
			Model  string   `json:"model"`
			Hex    []string `json:"hex"`
			Labels []int    `json:"labels"`
		}{modelName, hexRows, labels})
		if err != nil {
			return nil, err
		}
		classes := d.Classifier.PredictBatch(rows)
		v, err := stats.Decide(d.Accuracy, t, stats.Accuracy(classes, labels), distinguishRows, decideSigmas)
		if err != nil {
			return nil, err
		}
		reqs[b] = request{body: body, rows: rows, classes: classes, verdict: v.String()}
	}
	return reqs, nil
}

// check compares a 200 response body against the offline oracle.
func (rq *request) check(code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	var resp struct {
		Classes []int  `json:"classes"`
		Verdict string `json:"verdict"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	if rq.verdict != "" {
		if resp.Verdict != rq.verdict {
			return fmt.Errorf("verdict %s, offline %s", resp.Verdict, rq.verdict)
		}
		return nil
	}
	if !slices.Equal(resp.Classes, rq.classes) {
		return errors.New("classes differ from offline PredictBatch")
	}
	return nil
}

// serveRun is one serve workload's state across its phases.
type serveRun struct {
	rc       *runCtx
	st       *stack
	reqs     []request
	path     string // endpoint path
	routed   bool   // through the router to a ledgered replica
	loop     loop
	client   *http.Client
	verdicts atomic.Int64 // 200 distinguish answers, one ledger record each
}

func runServeClassify(rc *runCtx) (*report, error) {
	return runServe(rc, "/v1/classify", loop{Clients: min(2, runtime.NumCPU())}, false)
}

func runServeDistinguish(rc *runCtx) (*report, error) {
	return runServe(rc, "/v1/distinguish", loop{Clients: runtime.NumCPU(), Rate: distinguishRate}, true)
}

func runServe(rc *runCtx, path string, l loop, routed bool) (*report, error) {
	if err := checkLoad(l.Clients); err != nil {
		return nil, err
	}
	st, setup, err := repeatSetup(func(i int) (*stack, error) {
		return startStack(rc.Dir, i, rc.Seed, routed)
	}, func(s *stack) {
		if err := s.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping a set-up instance:", err)
		}
	})
	if err != nil {
		return nil, err
	}
	sr := &serveRun{rc: rc, st: st, path: path, routed: routed, loop: l, client: &http.Client{
		Timeout: 2 * requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     l.Clients,
			MaxIdleConnsPerHost: l.Clients,
			DisableCompression:  true,
		},
	}}
	defer sr.client.CloseIdleConnections()
	rep, err := sr.measure()
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep.Setup = setup
	if routed {
		sr.audit(rep.Tally)
	}
	return rep, nil
}

func (sr *serveRun) measure() (*report, error) {
	// The offline oracle is the model file as the replica loaded it.
	d, err := core.LoadDistinguisherFile(sr.st.model)
	if err != nil {
		return nil, err
	}
	if sr.routed {
		sr.reqs, err = distinguishRequests(d, sr.rc.Seed)
	} else {
		sr.reqs, err = classifyRequests(d, sr.rc.Seed)
	}
	if err != nil {
		return nil, err
	}
	t := &tally{}
	if _, err := sr.loop.run(warmup, t, sr.viaHTTP(sr.st.front)); err != nil {
		return nil, err
	}
	m := startMeter()
	res, err := sr.loop.run(sr.rc.phase(), t, sr.viaHTTP(sr.st.front))
	use := m.finish()
	if err != nil {
		return nil, err
	}
	rep := &report{Loop: res, Use: use, Tally: t}
	if len(res.Late) > 0 {
		lt := tail(res.Late)
		fmt.Fprintf(os.Stderr, "perfbench: generator ran late by %.4f ms median, %.4f ms at p%.2f\n", median(res.Late), lt.Value, lt.Pct)
	}
	if sr.rc.Trace {
		rep.Layers, err = sr.trace(t, median(res.Lat), res.Late)
	}
	return rep, err
}

// viaHTTP posts body i to base over loopback.
func (sr *serveRun) viaHTTP(base string) op {
	url := base + sr.path
	return func(_, i int) error {
		rq := &sr.reqs[i%len(sr.reqs)]
		resp, err := sr.client.Post(url, "application/json", bytes.NewReader(rq.body))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		sr.answered(resp.StatusCode)
		if err != nil {
			return err
		}
		return rq.check(resp.StatusCode, body)
	}
}

// answered counts a 200 distinguish answer: the replica appended one
// ledger record for it, whatever its verdict.
func (sr *serveRun) answered(code int) {
	if sr.routed && code == http.StatusOK {
		sr.verdicts.Add(1)
	}
}

// viaHandler runs body i through srv's handler in process.
func (sr *serveRun) viaHandler(srv *serve.Server) op {
	h := srv.Handler()
	return func(_, i int) error {
		rq := &sr.reqs[i%len(sr.reqs)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, sr.path, bytes.NewReader(rq.body)))
		if srv == sr.st.srv { // only the stack's replica writes the ledger
			sr.answered(rec.Code)
		}
		return rq.check(rec.Code, rec.Body.Bytes())
	}
}

// unledgered starts a server configured like the replica but without a
// ledger, with the replica's model admitted, so the ledger's share of a
// distinguish request can be told apart from decoding and encoding.
func (sr *serveRun) unledgered() (*serve.Server, error) {
	srv := serve.New(serve.Config{Scheduler: schedulerConfig, RequestTimeout: requestTimeout})
	if _, _, err := srv.Admit(modelName, sr.st.model); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// viaSubmit hands body i's decoded rows to a scheduler configured like
// the replica's.
func viaSubmit(sched *serve.Scheduler, entry *serve.Entry, reqs []request) op {
	return func(_, i int) error {
		rq := &reqs[i%len(reqs)]
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		classes, err := sched.Submit(ctx, entry, rq.rows)
		if err != nil {
			return err
		}
		if !slices.Equal(classes, rq.classes) {
			return errors.New("submit: classes differ from offline PredictBatch")
		}
		return nil
	}
}

// viaForward copies body i's rows into a per-client input matrix and
// runs the forward pass, as a scheduler worker does.
func viaForward(net *nn.Network, clients int, reqs []request) op {
	preds := make([]*nn.Predictor, clients)
	ins := make([]*nn.Matrix, clients)
	outs := make([][]int, clients)
	for w := range preds {
		preds[w] = net.NewPredictor()
	}
	return func(w, i int) error {
		rq := &reqs[i%len(reqs)]
		cols := len(rq.rows[0])
		if ins[w] == nil || ins[w].Rows != len(rq.rows) {
			ins[w] = nn.NewMatrix(len(rq.rows), cols)
		}
		for k, r := range rq.rows {
			copy(ins[w].Data[k*cols:(k+1)*cols], r)
		}
		outs[w] = preds[w].PredictInto(outs[w], ins[w])
		if !slices.Equal(outs[w], rq.classes) {
			return errors.New("forward: classes differ from offline PredictBatch")
		}
		return nil
	}
}

// trace measures each nested level for an equal share of the traced
// half, in the workload's own loop, and subtracts adjacent levels. On the
// routed workload a router level sits on top, and a handler without the
// ledger sits below the replica's handler, so the in-path ledger append
// and seal are not booked to serve.codec_ms.
func (sr *serveRun) trace(t *tally, untracedMS float64, late []float64) (map[string]float64, error) {
	entry, ok := sr.st.srv.Registry().Get(modelName)
	if !ok {
		return nil, fmt.Errorf("model %q not in the replica registry", modelName)
	}
	sched := serve.NewScheduler(schedulerConfig)
	defer sched.Stop()
	type lv struct {
		name string
		do   op
	}
	levels := []lv{
		{"serve.http", sr.viaHTTP(sr.st.replica.url)},
		{"serve.handler", sr.viaHandler(sr.st.srv)},
	}
	names := []string{"net.transport_ms"}
	if sr.routed {
		bare, err := sr.unledgered()
		if err != nil {
			return nil, err
		}
		defer bare.Close()
		levels = append([]lv{{"cluster.routed", sr.viaHTTP(sr.st.front)}}, levels...)
		levels = append(levels, lv{"serve.handler_unledgered", sr.viaHandler(bare)})
		names = append([]string{"cluster.hop_ms"}, names...)
		names = append(names, "ledger.inpath_ms")
	}
	levels = append(levels,
		lv{"serve.submit", viaSubmit(sched, entry, sr.reqs)},
		lv{"nn.forward", viaForward(entry.Net(), sr.loop.Clients, sr.reqs)},
	)
	names = append(names, "serve.codec_ms", "serve.queue_ms")
	slice := sr.rc.phase() / time.Duration(traceRounds*len(levels))
	lats := make([][]float64, len(levels))
	for r := 0; r < traceRounds; r++ {
		for k, l := range levels {
			res, err := sr.loop.run(slice, t, l.do)
			if err != nil {
				return nil, err
			}
			lats[k] = append(lats[k], res.Lat...)
		}
	}
	var meds []level
	for k, l := range levels {
		meds = append(meds, level{Name: l.name, MS: medianOf(lats[k])})
	}
	diffs, err := diffLevels(meds, names)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{
		"nn.forward_ms":        meds[len(meds)-1].MS,
		"trace.overhead_ratio": meds[0].MS / untracedMS,
	}
	for _, d := range diffs {
		out[d.Name] = d.MS
		if d.Negative() {
			out["trace.negative_diffs"]++
			fmt.Fprintf(os.Stderr, "perfbench: NEGATIVE layer difference %s = %.4f ms (%s %.4f < %s %.4f)\n",
				d.Name, d.MS, d.Outer, d.OuterMS, d.Inner, d.InnerMS)
		}
	}
	for _, m := range meds {
		fmt.Fprintf(os.Stderr, "perfbench: level %-24s median %.4f ms\n", m.Name, m.MS)
	}

	if err := sr.scrape(out); err != nil {
		return nil, err
	}
	bodyBytes := 0
	for _, rq := range sr.reqs {
		bodyBytes += len(rq.body)
	}
	out["serve.body_kb"] = float64(bodyBytes) / float64(len(sr.reqs)) / 1024
	if sr.routed {
		out["cluster.retries_total"] = float64(sr.st.rt.Retries.Value())
		for _, lv := range sr.st.rt.Routed.Snapshot() {
			out["cluster.routed_total"] += float64(lv.Value)
		}
		out["loadgen.late_p99_ms"] = tail(late).Value
		if err := probeLedger(sr.rc.Dir, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scrape reads the replica's /metrics.
func (sr *serveRun) scrape(out map[string]float64) error {
	resp, err := sr.client.Get(sr.st.replica.url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			vals[name] = f
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, k := range []string{"served_batch_size_sum", "served_batch_size_count", "served_shed_total", "served_timeout_total"} {
		if _, ok := vals[k]; !ok {
			return fmt.Errorf("/metrics lacks %s", k)
		}
	}
	if n := vals["served_batch_size_count"]; n > 0 {
		out["serve.batch_rows_mean"] = vals["served_batch_size_sum"] / n
	}
	out["serve.shed_total"] = vals["served_shed_total"]
	out["serve.timeout_total"] = vals["served_timeout_total"]
	return nil
}

// audit verifies the closed ledger against its anchor: it must replay
// cleanly and hold one record per admission plus one per verdict.
func (sr *serveRun) audit(t *tally) {
	t.record(func() error {
		a, err := ledger.LoadAnchorFile(sr.st.anchor)
		if err != nil {
			return fmt.Errorf("ledger audit: %w", err)
		}
		ls, err := ledger.VerifyLogFile(sr.st.logPath, &a)
		if err != nil {
			return fmt.Errorf("ledger audit: %w", err)
		}
		// Each repair re-admits the model on the replica.
		want := 1 + sr.st.rt.Repairs.Value() + uint64(sr.verdicts.Load())
		if ls.Records != want {
			return fmt.Errorf("ledger audit: %d records, want %d admissions + verdicts", ls.Records, want)
		}
		return nil
	}())
}

// probeLedger times Ledger.Append and Flush on a ledger of its own,
// opened with the replica's config, and measures its size and heap
// growth per record.
func probeLedger(dir string, out map[string]float64) error {
	const (
		probeBatches = 16
		heapRecords  = 4096
	)
	path := filepath.Join(dir, "probe.log")
	lc := ledgerConfig
	lc.AnchorPath = filepath.Join(dir, "probe.anchor")
	led, err := ledger.Open(path, lc)
	if err != nil {
		return err
	}
	defer led.Close()
	rec := ledger.Record{
		Kind: ledger.KindVerdict, Model: modelName, Version: 1, Scenario: "probe",
		Accuracy: 0.5, OfflineAccuracy: 0.97, Queries: distinguishRows, Verdict: "RANDOM", Sigmas: decideSigmas,
	}
	var appends, seals []float64
	for b := 0; b < probeBatches; b++ {
		for k := 0; k < ledgerConfig.MaxBatch-1; k++ {
			t0 := time.Now()
			if _, err := led.Append(rec); err != nil {
				return err
			}
			appends = append(appends, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		t0 := time.Now()
		if err := led.Flush(); err != nil {
			return err
		}
		seals = append(seals, ms(time.Since(t0)))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := 0; k < heapRecords; k++ {
		if _, err := led.Append(rec); err != nil {
			return err
		}
	}
	if err := led.Flush(); err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	out["ledger.append_us"] = medianOf(appends)
	out["ledger.seal_ms"] = medianOf(seals)
	out["ledger.bytes_per_record"] = float64(fi.Size()) / float64(led.Len())
	out["ledger.heap_kb_per_1k_records"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1024 / (heapRecords / 1000.0)
	return nil
}
