package nn

import (
	"math"
	"sync"
	"sync/atomic"
)

// This file implements the data-parallel deterministic training engine
// and the allocation-free batched Predictor.
//
// Determinism contract (the same one GenerateDatasetParallel honors):
// training results are byte-identical at any worker count. Floating-
// point addition is not associative, so the engine never lets goroutine
// scheduling pick an accumulation order. Instead every mini-batch is
// cut into fitShards canonical virtual shards — a function of the batch
// size alone — and:
//
//   - each shard's forward/backward runs on replica layers that share
//     the network weights but own their caches, scratch buffers and a
//     per-shard gradient accumulator, using single-goroutine kernels
//     whose chains are fixed by the shard contents;
//   - shard gradients are merged by a fixed-order pairwise tree
//     reduction over shard indices, and shard loss/hit tallies are
//     merged in shard order;
//   - the merge and the optimizer update are elementwise, so they run
//     as a second phase of the step over fixed parameter chunks whose
//     bounds depend on the parameter shapes alone.
//
// Workers claim shards, then chunks, from atomic cursors (work
// stealing), but every result lands in a shard- or element-indexed
// slot, so which worker computed what — and in which order shards and
// chunks complete — cannot affect a single bit of the output. One
// worker replays the identical computation serially.

// fitShards is the canonical number of virtual shards each mini-batch
// is cut into. It bounds both the useful training parallelism and the
// gradient-accumulator memory (fitShards−1 extra gradient sets). Eight
// covers the 4-core ≥2× target with headroom while keeping the
// per-shard matrices (16 rows of a 128-sample batch) large enough to
// amortize kernel overheads.
const fitShards = 8

// stepChunk is the number of parameter elements one claim of the
// step's merge-and-update phase covers. It is a multiple of 4, the
// AVX2 kernels' vector width, so only a parameter's last chunk has a
// scalar tail.
const stepChunk = 1024

// paramChunk is elements [lo, hi) of parameter pi.
type paramChunk struct{ pi, lo, hi int }

// trainCloner is implemented by layers that can replicate themselves
// for sharded training: the replica shares weight slices with the
// original but owns caches and (engine-bound) gradient buffers, and
// runs its kernels on the calling goroutine.
type trainCloner interface {
	cloneForTrain() Layer
}

// evalCloner is implemented by layers that can replicate themselves for
// scratch-reusing batched inference.
type evalCloner interface {
	cloneForEval() Layer
}

// fitState is the reusable engine for one (batch size, width, workers)
// shape. It is cached on the Network, so repeated Fit calls — and every
// step after the first — run with zero steady-state allocations.
type fitState struct {
	bs, cols, classes, workers int

	clones [][]Layer    // [worker][layer] training replicas
	params [][]*Param   // [worker][param], aligned with netParams
	in     []*Matrix    // [worker] shard input scratch (float input)
	inb    []*BitMatrix // [worker] shard input scratch (packed input)
	yb     [][]int      // [worker] shard label scratch
	probs  []*Matrix    // [worker] shard probability scratch

	netParams []*Param
	grads     [][][]float64 // [shard][param]; grads[0][p] aliases netParams[p].Grad
	lossSum   []float64     // [shard] Σ −log p, merged in shard order
	hits      []int         // [shard] correct argmax count
	chunks    []paramChunk  // the merge-and-update phase's claims

	// Per-step inputs, set by runStep before workers are released.
	input fitInput
	y     []int
	order []int
	start int
	m     int
	opt   rangeOptimizer // nil: the caller steps the optimizer after the merge

	cursor     atomic.Int64 // next shard to claim
	shardsDone atomic.Int64 // shards finished this step
	chunkNext  atomic.Int64 // next chunk to claim
	mu         sync.Mutex
	merging    sync.Cond // signalled when mergeOK is set; L is &mu
	mergeOK    bool      // every shard of this step has finished
	startCh    chan struct{}
	wg         sync.WaitGroup
}

// shardedFitState returns the cached or freshly built engine for this
// network, or nil when the network contains an LSTM, whose BPTT caches
// are not replicated. Such a network trains on the legacy whole-batch
// path, which ignores the worker count but remains deterministic.
func (n *Network) shardedFitState(bs, cols, workers int) *fitState {
	if workers < 1 {
		workers = 1
	}
	if workers > fitShards {
		workers = fitShards
	}
	if st := n.fit; st != nil && st.bs == bs && st.cols == cols && st.workers == workers {
		return st
	}
	st := &fitState{bs: bs, cols: cols, classes: n.Classes(), workers: workers}
	st.merging.L = &st.mu
	st.netParams = n.Params()
	maxRows := (bs + fitShards - 1) / fitShards
	for w := 0; w < workers; w++ {
		layers := make([]Layer, len(n.layers))
		for i, l := range n.layers {
			tc, ok := l.(trainCloner)
			if !ok {
				return nil
			}
			layers[i] = tc.cloneForTrain()
		}
		var ps []*Param
		for _, l := range layers {
			ps = append(ps, l.Params()...)
		}
		if len(ps) != len(st.netParams) {
			panic("nn: training replica parameter count mismatch")
		}
		st.clones = append(st.clones, layers)
		st.params = append(st.params, ps)
		st.in = append(st.in, nil)
		st.inb = append(st.inb, nil)
		st.yb = append(st.yb, make([]int, maxRows))
		st.probs = append(st.probs, NewMatrix(maxRows, st.classes))
	}
	st.grads = make([][][]float64, fitShards)
	st.lossSum = make([]float64, fitShards)
	st.hits = make([]int, fitShards)
	for v := range st.grads {
		gs := make([][]float64, len(st.netParams))
		for pi, p := range st.netParams {
			if v == 0 {
				// Shard 0's accumulator is the network's own gradient
				// buffer: the tree reduction folds every other shard
				// into it, so no final copy is needed before the
				// optimizer step.
				gs[pi] = p.Grad
			} else {
				gs[pi] = make([]float64, len(p.W))
			}
		}
		st.grads[v] = gs
	}
	for pi, p := range st.netParams {
		for lo := 0; lo < len(p.W); lo += stepChunk {
			st.chunks = append(st.chunks, paramChunk{pi, lo, min(lo+stepChunk, len(p.W))})
		}
	}
	n.fit = st
	return st
}

// startPool launches the persistent worker goroutines for one Fit call.
// Steps hand out work through a channel token per worker, so the
// steady-state step loop performs no allocations.
func (st *fitState) startPool() {
	if st.workers <= 1 || st.startCh != nil {
		return
	}
	// Workers range over their own copy of the channel: one that is
	// handed no token before the Fit ends may first run after stopPool
	// has reset st.startCh, and must still see the close.
	ch := make(chan struct{}, st.workers)
	st.startCh = ch
	for w := 1; w < st.workers; w++ {
		go func(w int) {
			for range ch {
				st.runWorker(w)
				st.wg.Done()
			}
		}(w)
	}
}

// stopPool releases the worker goroutines at the end of a Fit call.
func (st *fitState) stopPool() {
	if st.startCh != nil {
		close(st.startCh)
		st.startCh = nil
	}
}

// runStep trains on rows order[start : start+m] of (in, y), leaving
// the merged gradients in the network parameters' Grad buffers and,
// when st.opt is set, the updated weights in their W buffers. It
// returns the summed cross-entropy (Σ −log p, not yet divided by m)
// and the correct-prediction count.
func (st *fitState) runStep(in fitInput, y []int, order []int, start, m int) (lossSum float64, hits int) {
	st.input, st.y, st.order, st.start, st.m = in, y, order, start, m
	st.cursor.Store(0)
	st.shardsDone.Store(0)
	st.chunkNext.Store(0)
	st.mergeOK = false
	if st.opt != nil {
		st.opt.begin(st.netParams)
	}
	if st.startCh != nil {
		st.wg.Add(st.workers - 1)
		for i := 1; i < st.workers; i++ {
			st.startCh <- struct{}{}
		}
		st.runWorker(0)
		st.wg.Wait()
	} else {
		st.runWorker(0)
	}
	for v := 0; v < fitShards; v++ {
		lossSum += st.lossSum[v]
		hits += st.hits[v]
	}
	return lossSum, hits
}

// runWorker claims shards until the step's shard cursor is exhausted,
// waits until every claimed shard has finished, then claims parameter
// chunks to merge and update until that cursor is exhausted too. A
// worker that runs out of shards while others still run theirs parks
// rather than spins, so the wait burns no CPU; the worker finishing
// the last shard starts merging at once and wakes it to help.
func (st *fitState) runWorker(w int) {
	for {
		v := int(st.cursor.Add(1)) - 1
		if v >= fitShards {
			break
		}
		st.runShard(w, v)
		if st.shardsDone.Add(1) == fitShards {
			st.mu.Lock()
			st.mergeOK = true
			st.mu.Unlock()
			st.merging.Broadcast()
		}
	}
	if st.shardsDone.Load() < fitShards {
		st.mu.Lock()
		for !st.mergeOK {
			st.merging.Wait()
		}
		st.mu.Unlock()
	}
	for {
		c := int(st.chunkNext.Add(1)) - 1
		if c >= len(st.chunks) {
			return
		}
		st.mergeChunk(st.chunks[c])
	}
}

// mergeChunk folds the shard slots' elements of one chunk into slot 0
// (the network's Grad), zeroing slots 1–7 for the next step, and
// applies the optimizer to the chunk.
func (st *fitState) mergeChunk(c paramChunk) {
	var s [fitShards][]float64
	for v := range s {
		s[v] = st.grads[v][c.pi][c.lo:c.hi]
	}
	foldShards(&s)
	if st.opt != nil {
		st.opt.update(st.netParams[c.pi], c.lo, c.hi)
	}
}

// foldShards merges the eight equal-length shard slices into s[0] by
// the fixed-order pairwise tree ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))
// and zeroes s[1..7]. The order is a pure function of shard indices,
// so the merged bytes are independent of which worker produced which
// accumulator and of the order in which shards completed. foldAccel
// covers a vector-sized prefix in the same order; the loop does the
// rest, and all of it when forced scalar.
func foldShards(s *[fitShards][]float64) {
	s0, s1, s2, s3 := s[0], s[1][:len(s[0])], s[2][:len(s[0])], s[3][:len(s[0])]
	s4, s5, s6, s7 := s[4][:len(s[0])], s[5][:len(s[0])], s[6][:len(s[0])], s[7][:len(s[0])]
	for i := foldAccel(s); i < len(s0); i++ {
		s0[i] = ((s0[i] + s1[i]) + (s2[i] + s3[i])) + ((s4[i] + s5[i]) + (s6[i] + s7[i]))
		s1[i], s2[i], s3[i], s4[i], s5[i], s6[i], s7[i] = 0, 0, 0, 0, 0, 0, 0
	}
}

// runShard runs the forward/backward pass of canonical shard v on
// worker w's replicas, accumulating into the shard's gradient slot.
// Slots 1–7 come in zeroed by the previous step's merge (or by
// allocation); slot 0 holds the previous step's merged gradient and is
// cleared here.
func (st *fitState) runShard(w, v int) {
	gs := st.grads[v]
	ps := st.params[w]
	for pi := range ps {
		ps[pi].Grad = gs[pi]
		if v == 0 {
			zeroFloats(gs[pi])
		}
	}
	st.lossSum[v] = 0
	st.hits[v] = 0
	// Balanced contiguous shard bounds, a function of m alone.
	lo := v * st.m / fitShards
	hi := (v + 1) * st.m / fitShards
	if lo == hi {
		return
	}
	rows := hi - lo
	src := st.order[st.start+lo : st.start+hi]
	yb := st.yb[w]
	for k, i := range src {
		yb[k] = st.y[i]
	}
	// The shard's rows are gathered in the input's own form, and only
	// layer 0 sees which: packed rows reach a Dense layer 0 (train
	// checked that before choosing the packed input).
	layers := st.clones[w]
	var out *Matrix
	if xb := st.input.xb; xb != nil {
		bx := ensureBits(st.inb[w], rows, st.cols)
		for k, i := range src {
			copy(bx.Row(k), xb.Row(i))
		}
		st.inb[w] = bx
		out = layers[0].(*Dense).forwardBits(bx, true)
	} else {
		bx := ensureMatrix(st.in[w], rows, st.cols)
		for k, i := range src {
			copy(bx.Row(k), st.input.x.Row(i))
		}
		st.in[w] = bx
		out = layers[0].Forward(bx, true)
	}
	for _, l := range layers[1:] {
		out = l.Forward(out, true)
	}
	probs := ensureMatrix(st.probs[w], rows, st.classes)
	st.probs[w] = probs
	softmaxInto(probs, out)
	const eps = 1e-12
	loss, hits := 0.0, 0
	for i := 0; i < rows; i++ {
		yv := yb[i]
		p := probs.At(i, yv)
		if p < eps {
			p = eps
		}
		loss -= math.Log(p)
		if Argmax(probs.Row(i)) == yv {
			hits++
		}
	}
	st.lossSum[v] = loss
	st.hits[v] = hits
	// Softmax cross-entropy gradient in place: (softmax − onehot)/m,
	// with m the full batch size — the loss is a mean over the batch,
	// so every shard scales by the same constant.
	inv := 1 / float64(st.m)
	for i := 0; i < rows; i++ {
		probs.Data[i*st.classes+yb[i]] -= 1
	}
	for i := range probs.Data {
		probs.Data[i] *= inv
	}
	backward(layers, probs)
}

// backward runs the backward pass from the loss gradient g through
// layers; both training engines end their steps here. Layer 0's input
// gradient has no reader, so a Dense layer 0 only accumulates its
// parameter gradients.
func backward(layers []Layer, g *Matrix) {
	for i := len(layers) - 1; i > 0; i-- {
		g = layers[i].Backward(g)
	}
	if d, ok := layers[0].(*Dense); ok {
		d.backwardParams(g)
		return
	}
	layers[0].Backward(g)
}

// Predictor runs batched inference through replica layers that own
// reusable scratch buffers, so chunked prediction loops (classifier
// evaluation, the online distinguishing phase) stop allocating fresh
// intermediate matrices per chunk. Results are bitwise identical to
// Network.Predict. A Predictor is not safe for concurrent use; derive
// one per goroutine with NewPredictor.
type Predictor struct {
	net    *Network
	layers []Layer // nil: fall back to the allocating path (LSTM)
	in     *Matrix // float expansion of packed rows (non-Dense first layer)
}

// NewPredictor builds a Predictor for the network. Networks with
// non-replicable layers (LSTM) fall back to Network.Predict internally.
func (n *Network) NewPredictor() *Predictor {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		ec, ok := l.(evalCloner)
		if !ok {
			return &Predictor{net: n}
		}
		layers[i] = ec.cloneForEval()
	}
	return &Predictor{net: n, layers: layers}
}

// PredictInto writes the argmax class of each row of x into dst,
// growing it only if its capacity is insufficient, and returns the
// resulting slice. Steady-state calls with a recycled dst and a stable
// chunk shape perform no allocations.
func (p *Predictor) PredictInto(dst []int, x *Matrix) []int {
	if cap(dst) < x.Rows {
		dst = make([]int, x.Rows)
	}
	dst = dst[:x.Rows]
	if p.layers == nil {
		copy(dst, p.net.Predict(x))
		return dst
	}
	return argmaxRows(dst, forwardFrom(p.layers, x, x))
}

// forwardFrom runs the replica layers on x in inference mode. An
// activation whose input is not the caller's matrix writes over it:
// that input is an earlier replica's scratch, which nothing reads
// again before the next call rewrites it, so the activation needs no
// batch-sized buffer of its own.
func forwardFrom(layers []Layer, x, caller *Matrix) *Matrix {
	for _, l := range layers {
		if a, ok := l.(*Activation); ok && x != caller {
			x = a.forwardInPlace(x)
		} else {
			x = l.Forward(x, false)
		}
	}
	return x
}

// PredictBitsInto is PredictInto for packed {0,1} rows. A Dense first
// layer reads the packed rows directly (Dense.forwardBits); any other
// network predicts from the rows expanded to 0.0/1.0 floats. Either
// way the classes are bitwise those of PredictInto on the float rows.
func (p *Predictor) PredictBitsInto(dst []int, x *BitMatrix) []int {
	var d *Dense
	if p.layers != nil {
		d, _ = p.layers[0].(*Dense)
	}
	if d == nil {
		x.check()
		p.in = x.expand(ensureMatrix(p.in, x.Rows, x.Cols))
		return p.PredictInto(dst, p.in)
	}
	if cap(dst) < x.Rows {
		dst = make([]int, x.Rows)
	}
	out := forwardFrom(p.layers[1:], d.forwardBits(x, false), nil)
	return argmaxRows(dst[:x.Rows], out)
}

// argmaxRows writes the argmax class of each row of out into dst.
func argmaxRows(dst []int, out *Matrix) []int {
	for i := range dst {
		dst[i] = Argmax(out.Row(i))
	}
	return dst
}

// Predict returns the argmax class of each row of x.
func (p *Predictor) Predict(x *Matrix) []int {
	return p.PredictInto(nil, x)
}
