package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bits"
	"repro/internal/nn"
)

// rowToHex packs a {0,1} float row into the hex encoding the API
// accepts (bits.Hex of the little-endian packed bytes).
func rowToHex(row []float64) string { return bits.Hex(bits.FloatsToBytes(row)) }

// TestSchedulerCoalesces submits 8 single-row requests concurrently
// with a generous MaxDelay: the scheduler must run them as one batch
// of 8 rows, not 8 batches of 1 — the acceptance check that the
// batch-size histogram sees sizes > 1 under concurrent load.
func TestSchedulerCoalesces(t *testing.T) {
	srv := New(Config{Scheduler: SchedulerConfig{
		MaxBatch: 8, MaxDelay: time.Second, Workers: 1, QueueDepth: 64,
	}})
	defer srv.Close()
	entry, err := srv.Registry().Load("speck4", modelPath(t))
	if err != nil {
		t.Fatal(err)
	}
	d := offline(t)
	rows, _ := sampleRows(d, 77, 8)
	want := d.Classifier.PredictBatch(rows)

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			classes, err := srv.sched.Submit(context.Background(), entry, rows[i:i+1])
			if err != nil {
				errs[i] = err
				return
			}
			if classes[0] != want[i] {
				errs[i] = errors.New("wrong class")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if got := srv.sched.Batches.Value(); got != 1 {
		t.Fatalf("ran %d batches for 8 concurrent 1-row requests, want 1 coalesced batch", got)
	}
	s := srv.sched.BatchSizes.Snapshot()
	if s.Count != 1 || s.Sum != 8 {
		t.Fatalf("batch histogram count/sum = %d/%d, want 1/8", s.Count, s.Sum)
	}
}

// TestSchedulerGroupsByModel puts two models' requests into one
// dispatched batch and checks each group runs as its own forward pass
// with correct routing.
func TestSchedulerGroupsByModel(t *testing.T) {
	srv := New(Config{Scheduler: SchedulerConfig{
		MaxBatch: 100, MaxDelay: 150 * time.Millisecond, Workers: 1, QueueDepth: 64,
	}})
	defer srv.Close()
	path := modelPath(t)
	ea, err := srv.Registry().Load("a", path)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := srv.Registry().Load("b", path)
	if err != nil {
		t.Fatal(err)
	}
	d := offline(t)
	rows, _ := sampleRows(d, 13, 4)
	want := d.Classifier.PredictBatch(rows)

	entries := []*Entry{ea, eb, ea, eb}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			classes, err := srv.sched.Submit(context.Background(), entries[i], rows[i:i+1])
			if err != nil {
				errs[i] = err
				return
			}
			if classes[0] != want[i] {
				errs[i] = errors.New("wrong class")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if got := srv.sched.Batches.Value(); got != 2 {
		t.Fatalf("ran %d forward passes, want 2 (one per model in the shared batch)", got)
	}
	if s := srv.sched.BatchSizes.Snapshot(); s.Sum != 4 {
		t.Fatalf("batch rows sum = %d, want 4", s.Sum)
	}
}

// TestSchedulerShedsWhenFull fills the queue of an unstarted
// scheduler; the next Submit must shed, not block.
func TestSchedulerShedsWhenFull(t *testing.T) {
	s := newScheduler(SchedulerConfig{QueueDepth: 2})
	s.queue <- &task{}
	s.queue <- &task{}
	_, err := s.Submit(context.Background(), &Entry{}, [][]float64{{0}})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit on full queue = %v, want ErrOverloaded", err)
	}
	if s.Shed.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.Shed.Value())
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newScheduler(SchedulerConfig{MaxBatch: 4})
	classes, err := s.Submit(context.Background(), &Entry{}, nil)
	if err != nil || classes != nil {
		t.Fatalf("empty submit = %v/%v, want nil/nil", classes, err)
	}
	if _, err := s.Submit(context.Background(), &Entry{}, make([][]float64, 5)); err == nil {
		t.Fatal("oversize submit accepted")
	}
}

// TestExpiredTasksSkipInference: tasks whose context is already done
// when the worker reaches them are answered with the context error and
// cost no forward-pass rows.
func TestExpiredTasksSkipInference(t *testing.T) {
	srv := New(Config{Scheduler: SchedulerConfig{
		MaxBatch: 100, MaxDelay: 100 * time.Millisecond, Workers: 1, QueueDepth: 64,
	}})
	defer srv.Close()
	entry, err := srv.Registry().Load("speck4", modelPath(t))
	if err != nil {
		t.Fatal(err)
	}
	d := offline(t)
	rows, _ := sampleRows(d, 31, 2)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.sched.Submit(cancelled, entry, rows[:1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit = %v, want context.Canceled", err)
	}
	if _, err := srv.sched.Submit(cancelled, entry, rows[1:]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit = %v, want context.Canceled", err)
	}
	classes, err := srv.sched.Submit(context.Background(), entry, rows[:1])
	if err != nil {
		t.Fatal(err)
	}
	want := d.Classifier.PredictBatch(rows[:1])
	if classes[0] != want[0] {
		t.Fatal("live task misrouted")
	}
	// Only the live row was inferred: the cancelled rows never reach a
	// forward pass.
	if s := srv.sched.BatchSizes.Snapshot(); s.Sum != 1 {
		t.Fatalf("inferred %d rows, want 1 (expired tasks must be skipped)", s.Sum)
	}
}

// BenchmarkServeClassify measures request throughput through the full
// HTTP handler path (JSON decode → scheduler → batched forward pass →
// JSON encode), with concurrent submitters so the scheduler actually
// coalesces. Wired into scripts/bench.sh.
func BenchmarkServeClassify(b *testing.B) {
	path, err := testModel()
	if err != nil {
		b.Fatal(err)
	}
	srv := New(Config{Scheduler: SchedulerConfig{
		MaxBatch: 256, MaxDelay: 200 * time.Microsecond, Workers: 4, QueueDepth: 4096,
	}})
	defer srv.Close()
	if _, err := srv.Registry().Load("speck4", path); err != nil {
		b.Fatal(err)
	}
	d, err := trainSpeck4(7)
	if err != nil {
		b.Fatal(err)
	}
	const rowsPer = 64
	rows, _ := sampleRows(d, 5, rowsPer)
	body, err := json.Marshal(classifyRequest{Model: "speck4", Rows: rows})
	if err != nil {
		b.Fatal(err)
	}
	handler := srv.Handler()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	})
	b.StopTimer()
	if srv.sched.Batches.Value() == 0 {
		b.Fatal("no batches recorded")
	}
}

// TestSubmitPacksFloatRows: Submit packs float rows for SubmitBits,
// refusing rows of unequal length and values other than 0 or 1 before
// anything is queued.
func TestSubmitPacksFloatRows(t *testing.T) {
	s := newScheduler(SchedulerConfig{MaxBatch: 4})
	for name, rows := range map[string][][]float64{
		"ragged": {{0, 1}, {1}},
		"0.5":    {{0, 0.5}},
		"-1":     {{-1, 0}},
		"2":      {{1, 2}},
		"NaN":    {{math.NaN()}},
	} {
		if _, err := s.Submit(context.Background(), &Entry{}, rows); err == nil {
			t.Errorf("%s rows accepted", name)
		}
	}
	if s.QueueLen() != 0 {
		t.Fatalf("refused rows were queued")
	}
}

// TestSubmitBitsValidation: malformed packed rows are refused before
// they are queued, and rows of the wrong width for the model are
// answered with an error instead of reaching a forward pass.
func TestSubmitBitsValidation(t *testing.T) {
	srv := New(Config{Scheduler: SchedulerConfig{MaxBatch: 4, MaxDelay: time.Millisecond}})
	defer srv.Close()
	entry, err := srv.Registry().Load("speck4", modelPath(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := srv.sched.SubmitBits(ctx, entry, &nn.BitMatrix{Rows: 2, Cols: 32, Data: make([]uint64, 1)}); err == nil {
		t.Fatal("2 rows in 1 word accepted")
	}
	if _, err := srv.sched.SubmitBits(ctx, entry, &nn.BitMatrix{Rows: 5, Cols: 32, Data: make([]uint64, 5)}); err == nil {
		t.Fatal("oversize submit accepted")
	}
	if _, err := srv.sched.SubmitBits(ctx, entry, &nn.BitMatrix{Rows: 1, Cols: 31, Data: make([]uint64, 1)}); err == nil {
		t.Fatal("31-feature rows for a 32-feature model accepted")
	}
	if s := srv.sched.BatchSizes.Snapshot(); s.Count != 0 {
		t.Fatalf("refused rows reached %d forward passes", s.Count)
	}
	d := offline(t)
	rows, _ := sampleRows(d, 3, 3)
	x := &nn.BitMatrix{Rows: 3, Cols: 32, Data: make([]uint64, 3)}
	for i, row := range rows {
		bits.PackFloats(x.Row(i), row)
	}
	classes, err := srv.sched.SubmitBits(ctx, entry, x)
	if err != nil {
		t.Fatal(err)
	}
	if want := d.Classifier.PredictBatch(rows); !slices.Equal(classes, want) {
		t.Fatalf("packed classes %v, offline PredictBatch %v", classes, want)
	}
}
