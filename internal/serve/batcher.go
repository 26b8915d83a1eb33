package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bits"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// ErrOverloaded is returned by Submit when the request queue is full;
// HTTP handlers translate it to 429 + Retry-After.
var ErrOverloaded = errors.New("serve: queue full, shedding load")

// ErrStopped is returned by Submit after the scheduler has begun
// draining.
var ErrStopped = errors.New("serve: scheduler stopped")

// SchedulerConfig bounds the micro-batching scheduler.
type SchedulerConfig struct {
	// MaxBatch is the row count at which a collecting batch flushes
	// immediately (default 256). One Submit may carry at most MaxBatch
	// rows.
	MaxBatch int
	// MaxDelay is how long a non-full batch waits for more requests to
	// coalesce before flushing (default 2ms) — the latency the first
	// request in a batch pays, at most, for throughput.
	MaxDelay time.Duration
	// Workers is the inference worker count (default 2). Each worker
	// owns one packed scratch input and one Predictor replica per
	// model, so the steady state allocates only each task's reply.
	Workers int
	// QueueDepth bounds the submitted-but-unscheduled request count
	// (default 256). A full queue sheds new requests with
	// ErrOverloaded instead of queueing unboundedly.
	QueueDepth int
}

func (c *SchedulerConfig) setDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
}

// task is one submitted classification request: packed rows for one
// model, and a buffered reply channel so a worker can always complete
// it without blocking, even if the submitter timed out and left.
type task struct {
	entry *Entry
	rows  *nn.BitMatrix
	ctx   context.Context
	out   chan taskResult
}

type taskResult struct {
	classes []int
	err     error
}

// Scheduler coalesces concurrent classification requests into batched
// forward passes. A dispatcher goroutine collects submitted tasks
// until MaxBatch rows have accumulated or the oldest task has waited
// MaxDelay, then hands the batch to one of Workers inference
// goroutines. Within a batch, tasks for the same model entry share a
// single Predictor call.
type Scheduler struct {
	cfg     SchedulerConfig
	queue   chan *task
	batches chan []*task

	// Instrumentation, recorded at flush/execute time.
	BatchSizes *metrics.Histogram // rows per Predictor call
	Batches    *metrics.Counter   // Predictor calls
	Shed       *metrics.Counter   // submits rejected with ErrOverloaded

	// Per-model load, keyed by model name: accepted submits, accepted
	// rows, and Predictor calls. These are what a cluster router's
	// aggregated /metrics uses to show where each model's traffic
	// lands.
	ModelRequests *metrics.CounterVec
	ModelRows     *metrics.CounterVec
	ModelBatches  *metrics.CounterVec

	stopMu   sync.RWMutex
	stopping bool
	inflight sync.WaitGroup // submitted tasks not yet replied to
	done     sync.WaitGroup // dispatcher + workers
}

// NewScheduler builds and starts a scheduler.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	s := newScheduler(cfg)
	s.start()
	return s
}

// newScheduler builds the scheduler without starting its goroutines;
// tests use the unstarted form to exercise queue-full shedding
// deterministically.
func newScheduler(cfg SchedulerConfig) *Scheduler {
	cfg.setDefaults()
	return &Scheduler{
		cfg:           cfg,
		queue:         make(chan *task, cfg.QueueDepth),
		batches:       make(chan []*task),
		BatchSizes:    metrics.NewHistogram(uint64(cfg.MaxBatch)),
		Batches:       &metrics.Counter{},
		Shed:          &metrics.Counter{},
		ModelRequests: &metrics.CounterVec{},
		ModelRows:     &metrics.CounterVec{},
		ModelBatches:  &metrics.CounterVec{},
	}
}

func (s *Scheduler) start() {
	s.done.Add(1 + s.cfg.Workers)
	go s.dispatch()
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
}

// QueueLen reports the current queue depth (for gauges).
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// MaxBatch reports the configured flush threshold.
func (s *Scheduler) MaxBatch() int { return s.cfg.MaxBatch }

// Submit is SubmitBits for float rows: it packs them, refusing rows
// of unequal length and values other than 0 or 1.
func (s *Scheduler) Submit(ctx context.Context, entry *Entry, rows [][]float64) ([]int, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	if len(rows) > s.cfg.MaxBatch {
		return nil, fmt.Errorf("serve: request has %d rows, max %d per request", len(rows), s.cfg.MaxBatch)
	}
	cols := len(rows[0])
	x := &nn.BitMatrix{Rows: len(rows), Cols: cols, Data: make([]uint64, len(rows)*bits.PackedWords(cols))}
	for i, row := range rows {
		if len(row) != cols {
			return nil, fmt.Errorf("serve: row %d has %d values, row 0 has %d", i, len(row), cols)
		}
		words := x.Row(i)
		for k := range words {
			// One pass with no branch on the bit: a branch would
			// mispredict on about half the values of a random row.
			var w uint64
			for j, v := range row[64*k : min(64*k+64, cols)] {
				b := int64(v)
				if b>>1 != 0 || float64(b) != v {
					return nil, fmt.Errorf("serve: row %d value %d is %v, want 0 or 1", i, 64*k+j, v)
				}
				w |= uint64(b) << j
			}
			words[k] = w
		}
	}
	return s.SubmitBits(ctx, entry, x)
}

// SubmitBits enqueues packed rows for entry and blocks until a worker
// replies or ctx is done. The rows must have entry.FeatureLen()
// columns, and are not modified. It returns ErrOverloaded when the
// queue is full and ctx.Err() when the deadline expires first; the
// batch still executes in that case, its result discarded.
func (s *Scheduler) SubmitBits(ctx context.Context, entry *Entry, x *nn.BitMatrix) ([]int, error) {
	if x.Rows == 0 {
		return nil, nil
	}
	if x.Rows > s.cfg.MaxBatch {
		return nil, fmt.Errorf("serve: request has %d rows, max %d per request", x.Rows, s.cfg.MaxBatch)
	}
	if x.Rows < 0 || x.Cols < 0 || len(x.Data) != x.Rows*x.Words() {
		return nil, fmt.Errorf("serve: %d×%d rows packed in %d words", x.Rows, x.Cols, len(x.Data))
	}
	t := &task{entry: entry, rows: x, ctx: ctx, out: make(chan taskResult, 1)}

	s.stopMu.RLock()
	if s.stopping {
		s.stopMu.RUnlock()
		return nil, ErrStopped
	}
	s.inflight.Add(1)
	select {
	case s.queue <- t:
		s.stopMu.RUnlock()
		s.ModelRequests.With(entry.Name).Inc()
		s.ModelRows.With(entry.Name).Add(uint64(x.Rows))
	default:
		s.inflight.Done()
		s.stopMu.RUnlock()
		s.Shed.Inc()
		return nil, ErrOverloaded
	}

	select {
	case res := <-t.out:
		return res.classes, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stop drains the scheduler: new Submits fail with ErrStopped, every
// already-submitted task is executed and replied to, then the worker
// goroutines exit. Safe to call once; the HTTP layer calls it after
// the listener has shut down.
func (s *Scheduler) Stop() {
	s.stopMu.Lock()
	if s.stopping {
		s.stopMu.Unlock()
		return
	}
	s.stopping = true
	s.stopMu.Unlock()
	s.inflight.Wait() // all queued tasks answered
	close(s.queue)    // dispatcher flushes (nothing left) and exits
	s.done.Wait()
}

// dispatch is the single collector goroutine: it blocks for the first
// task of a batch, then keeps the batch open until MaxBatch rows have
// accumulated or MaxDelay has elapsed, whichever is first.
func (s *Scheduler) dispatch() {
	defer s.done.Done()
	var timer *time.Timer
	for {
		t, ok := <-s.queue
		if !ok {
			close(s.batches)
			return
		}
		batch := []*task{t}
		rows := t.rows.Rows
		if timer == nil {
			timer = time.NewTimer(s.cfg.MaxDelay)
		} else {
			timer.Reset(s.cfg.MaxDelay)
		}
		closed := false
	collect:
		for rows < s.cfg.MaxBatch {
			select {
			case t2, ok := <-s.queue:
				if !ok {
					closed = true
					break collect
				}
				batch = append(batch, t2)
				rows += t2.rows.Rows
			case <-timer.C:
				break collect
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		s.batches <- batch
		if closed {
			close(s.batches)
			return
		}
	}
}

// inferState is one worker's per-model scratch: a Predictor replica
// over the entry's network plus a reusable packed input and output
// slice, mirroring NNClassifier's zero-allocation prediction
// discipline but private to the worker so workers never contend.
type inferState struct {
	net  *nn.Network
	pred *nn.Predictor
	in   nn.BitMatrix
	out  []int
}

// ensure shapes the scratch input to n rows of cols features, reusing
// its backing array once the largest batch shape has been seen, and
// rebuilds the Predictor replica when the entry's network was swapped
// by a hot reload.
func (st *inferState) ensure(net *nn.Network, n, cols int) *nn.BitMatrix {
	if st.net != net {
		st.net = net
		st.pred = net.NewPredictor()
	}
	words := n * bits.PackedWords(cols)
	if cap(st.in.Data) < words {
		st.in.Data = make([]uint64, words)
	}
	st.in.Rows, st.in.Cols, st.in.Data = n, cols, st.in.Data[:words]
	return &st.in
}

// worker executes batches: tasks are grouped by model entry in
// first-seen order, each group runs as one Predictor call, and the
// group's predictions are split back across its tasks. Tasks whose
// context expired while queued are answered with the context error
// without spending forward-pass work on them.
func (s *Scheduler) worker() {
	defer s.done.Done()
	states := map[string]*inferState{}
	var group []*task // scratch, reused across batches
	for batch := range s.batches {
		for len(batch) > 0 {
			lead := batch[0].entry
			group = group[:0]
			rest := batch[:0]
			for _, t := range batch {
				if t.entry == lead {
					group = append(group, t)
				} else {
					rest = append(rest, t)
				}
			}
			batch = rest
			s.runGroup(states, lead, group)
		}
	}
}

// runGroup executes one same-model group as a single batched forward
// pass.
func (s *Scheduler) runGroup(states map[string]*inferState, entry *Entry, group []*task) {
	cols := entry.FeatureLen()
	live := group[:0]
	rows := 0
	for _, t := range group {
		err := t.ctx.Err()
		if err == nil && t.rows.Cols != cols {
			err = fmt.Errorf("serve: rows have %d features, model %q wants %d", t.rows.Cols, entry.Name, cols)
		}
		if err != nil {
			t.out <- taskResult{err: err}
			s.inflight.Done()
			continue
		}
		live = append(live, t)
		rows += t.rows.Rows
	}
	if rows == 0 {
		return
	}
	st := states[entry.Name]
	if st == nil {
		st = &inferState{}
		states[entry.Name] = st
	}
	in := st.ensure(entry.net, rows, cols)
	off := 0
	for _, t := range live {
		off += copy(in.Data[off:], t.rows.Data)
	}
	st.out = st.pred.PredictBitsInto(st.out, in)
	classes := st.out
	s.Batches.Inc()
	s.BatchSizes.Observe(uint64(rows))
	s.ModelBatches.With(entry.Name).Inc()
	off = 0
	for _, t := range live {
		n := t.rows.Rows
		out := make([]int, n)
		copy(out, classes[off:off+n])
		off += n
		t.out <- taskResult{classes: out}
		s.inflight.Done()
	}
}
