package nn

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/prng"
)

// Network is a sequential stack of layers trained against softmax
// cross-entropy. The last layer's OutDim is the class count.
type Network struct {
	layers []Layer
	fit    *fitState // cached sharded training engine (see parallel.go)
}

// NewNetwork validates that consecutive layer dimensions chain and
// returns the stack.
func NewNetwork(layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: network needs at least one layer")
	}
	for i := 1; i < len(layers); i++ {
		if layers[i-1].OutDim() != layers[i].InDim() {
			return nil, fmt.Errorf("nn: layer %d (%s) outputs %d features but layer %d (%s) expects %d",
				i-1, layers[i-1].Name(), layers[i-1].OutDim(), i, layers[i].Name(), layers[i].InDim())
		}
	}
	return &Network{layers: layers}, nil
}

// Layers returns the layer stack (callers must not mutate it).
func (n *Network) Layers() []Layer { return n.layers }

// InDim returns the expected feature width.
func (n *Network) InDim() int { return n.layers[0].InDim() }

// Classes returns the output width (number of classes).
func (n *Network) Classes() int { return n.layers[len(n.layers)-1].OutDim() }

// Params returns every trainable tensor in the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of trainable scalars — the
// "# Parameters" column of Table 3.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W)
	}
	return total
}

// Summary renders a Keras-style per-layer summary.
func (n *Network) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Network (%d parameters)\n", n.ParamCount())
	for i, l := range n.layers {
		params := 0
		for _, p := range l.Params() {
			params += len(p.W)
		}
		fmt.Fprintf(&sb, "  %2d. %-28s params=%d\n", i, l.Name(), params)
	}
	return sb.String()
}

// Forward runs the full stack and returns logits.
func (n *Network) Forward(x *Matrix, train bool) *Matrix {
	for _, l := range n.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Probs returns softmax class probabilities for a batch.
func (n *Network) Probs(x *Matrix) *Matrix {
	return Softmax(n.Forward(x, false))
}

// Predict returns the argmax class of each row.
func (n *Network) Predict(x *Matrix) []int {
	logits := n.Forward(x, false)
	out := make([]int, logits.Rows)
	for i := range out {
		out[i] = Argmax(logits.Row(i))
	}
	return out
}

// PredictOne classifies a single feature vector.
func (n *Network) PredictOne(x []float64) int {
	m := FromRows([][]float64{x})
	return n.Predict(m)[0]
}

// FitConfig controls training.
type FitConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Seed      uint64 // shuffling seed
	// OnEpoch, if non-nil, is called after each epoch with the epoch
	// index (0-based), mean training loss and training accuracy.
	OnEpoch func(epoch int, loss, acc float64)
	// Workers is the number of goroutines sharing each mini-batch's
	// forward/backward work. 0 means GOMAXPROCS; values above the
	// engine's canonical shard count (8) are clamped. Training results
	// are byte-identical at every worker count — see parallel.go.
	Workers int
}

// History records per-epoch training metrics.
type History struct {
	Loss []float64
	Acc  []float64
}

// Fit trains the network with mini-batch gradient descent. x rows are
// samples, y the integer class labels.
func (n *Network) Fit(x *Matrix, y []int, cfg FitConfig) (*History, error) {
	return n.train(fitInput{x: x}, y, cfg)
}

// FitBits is Fit over packed {0,1} rows, with bit-identical results:
// the History and trained weights equal Fit's on the rows expanded to
// 0.0/1.0 floats. A network whose first layer is Dense reads the
// packed rows directly (see Dense.forwardBits); any other network
// trains on the expanded rows.
func (n *Network) FitBits(x *BitMatrix, y []int, cfg FitConfig) (*History, error) {
	if len(x.Data) != x.Rows*x.Words() {
		return nil, fmt.Errorf("nn: %d×%d packed samples need %d words, got %d", x.Rows, x.Cols, x.Rows*x.Words(), len(x.Data))
	}
	return n.train(fitInput{xb: x}, y, cfg)
}

// fitInput is a training set in one of Fit's two input forms: float
// rows (x) or packed bit rows (xb). Exactly one is set.
type fitInput struct {
	x  *Matrix
	xb *BitMatrix
}

// shape returns the sample count and feature width.
func (in fitInput) shape() (rows, cols int) {
	if in.xb != nil {
		return in.xb.Rows, in.xb.Cols
	}
	return in.x.Rows, in.x.Cols
}

func (n *Network) train(in fitInput, y []int, cfg FitConfig) (*History, error) {
	rows, cols := in.shape()
	if rows != len(y) {
		return nil, fmt.Errorf("nn: %d samples but %d labels", rows, len(y))
	}
	if rows == 0 {
		return nil, fmt.Errorf("nn: empty training set")
	}
	if cols != n.InDim() {
		return nil, fmt.Errorf("nn: samples have width %d, network expects %d", cols, n.InDim())
	}
	classes := n.Classes()
	for i, label := range y {
		if label < 0 || label >= classes {
			return nil, fmt.Errorf("nn: label %d at index %d out of range [0,%d)", label, i, classes)
		}
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("nn: epochs must be positive, got %d", cfg.Epochs)
	}
	bs := cfg.BatchSize
	if bs <= 0 {
		bs = 128
	}
	if bs > rows {
		bs = rows
	}
	opt := cfg.Optimizer
	if opt == nil {
		opt = NewAdam(0)
	}

	r := prng.New(cfg.Seed ^ 0xfeedface)
	order := make([]int, rows)
	for i := range order {
		order[i] = i
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if _, dense := n.layers[0].(*Dense); in.xb != nil && !dense {
		// Packed rows reach the first layer only through Dense;
		// everything else trains on the float rows.
		in = fitInput{x: in.xb.expand(NewMatrix(rows, cols))}
	}
	return n.fitSharded(n.shardedFitState(bs, cols, workers), in, y, order, bs, opt, r, cfg)
}

// fitSharded is the data-parallel deterministic training loop: every
// mini-batch is processed by the canonical shard engine in parallel.go,
// whose workers also apply the optimizer to the merged gradients, so
// results are byte-identical at any worker count.
func (n *Network) fitSharded(st *fitState, in fitInput, y []int, order []int, bs int, opt Optimizer, r *prng.Rand, cfg FitConfig) (*History, error) {
	hist := &History{}
	st.opt = opt
	st.startPool()
	defer func() {
		st.stopPool()
		st.opt = nil
	}()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		totalLoss, totalHit, seen := 0.0, 0, 0
		for start := 0; start < len(order); start += bs {
			end := start + bs
			if end > len(order) {
				end = len(order)
			}
			m := end - start
			lossSum, hits := st.runStep(in, y, order, start, m)
			totalLoss += lossSum
			totalHit += hits
			seen += m
		}
		epochLoss := totalLoss / float64(seen)
		epochAcc := float64(totalHit) / float64(seen)
		hist.Loss = append(hist.Loss, epochLoss)
		hist.Acc = append(hist.Acc, epochAcc)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, epochLoss, epochAcc)
		}
	}
	return hist, nil
}
