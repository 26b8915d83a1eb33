package core

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/svm"
)

// NNClassifier adapts an internal/nn network to the Classifier
// interface, owning its training hyperparameters. It is not safe for
// concurrent use: PredictBatch reuses cached scratch buffers.
type NNClassifier struct {
	Net    *nn.Network
	Epochs int
	Batch  int
	LR     float64
	Seed   uint64
	// Workers is the training worker count passed to nn.FitConfig
	// (0 = GOMAXPROCS). Trained weights are byte-identical at every
	// value; see the determinism contract in internal/nn/parallel.go.
	Workers int
	// OnEpoch, if non-nil, receives per-epoch training metrics.
	OnEpoch func(epoch int, loss, acc float64)

	// Prediction scratch, rebuilt whenever Net is swapped: a Predictor
	// holding replica layers with reusable buffers, and one input matrix
	// shared by every chunk of every PredictBatch call.
	pred    *nn.Predictor
	predNet *nn.Network
	inBuf   *nn.Matrix
}

// NewMLPClassifier builds the package's default model: the paper's
// "three layer neural network" (one hidden layer) sized for the
// scenario, trained with Adam. hidden ≤ 0 selects 128.
func NewMLPClassifier(featureLen, classes, hidden int, seed uint64) (*NNClassifier, error) {
	if hidden <= 0 {
		hidden = 128
	}
	net, err := nn.MLP(featureLen, []int{hidden}, classes, nn.ReLU, prng.New(seed))
	if err != nil {
		return nil, err
	}
	return &NNClassifier{Net: net, Epochs: 5, Batch: 128, LR: 0.001, Seed: seed}, nil
}

// NewTable3Classifier wraps one of the paper's Table 3 architectures.
func NewTable3Classifier(arch string, featureLen int, seed uint64) (*NNClassifier, error) {
	net, err := nn.Table3(arch, featureLen, prng.New(seed))
	if err != nil {
		return nil, err
	}
	return &NNClassifier{Net: net, Epochs: 5, Batch: 128, LR: 0.001, Seed: seed}, nil
}

// Name identifies the classifier.
func (c *NNClassifier) Name() string { return fmt.Sprintf("nn(%d params)", c.Net.ParamCount()) }

// Fit trains the network on the labelled samples.
func (c *NNClassifier) Fit(x [][]float64, y []int) error {
	_, err := c.Net.Fit(nn.FromRows(x), y, c.fitConfig())
	return err
}

// FitDataset trains the network straight from the packed backing
// store through nn.Network.FitBits, whose trained weights are
// byte-identical to Fit on the Rows() view.
func (c *NNClassifier) FitDataset(d *Dataset) error {
	_, err := c.Net.FitBits(datasetBits(d), d.Y, c.fitConfig())
	return err
}

// datasetBits views d's rows as an nn.BitMatrix, sharing the packed
// backing store.
func datasetBits(d *Dataset) *nn.BitMatrix {
	return &nn.BitMatrix{Rows: d.Len(), Cols: d.feat, Data: d.bits[:d.Len()*d.words]}
}

// fitConfig resolves the classifier's training hyperparameters.
func (c *NNClassifier) fitConfig() nn.FitConfig {
	epochs := c.Epochs
	if epochs <= 0 {
		epochs = 5
	}
	batch := c.Batch
	if batch <= 0 {
		batch = 128
	}
	return nn.FitConfig{
		Epochs:    epochs,
		BatchSize: batch,
		Optimizer: nn.NewAdam(c.LR),
		Seed:      c.Seed,
		OnEpoch:   c.OnEpoch,
		Workers:   c.Workers,
	}
}

// Predict returns the network's argmax class.
func (c *NNClassifier) Predict(x []float64) int { return c.Net.PredictOne(x) }

// predictChunk caps how many float rows PredictBatch copies into its
// input buffer for one Predictor call, bounding that buffer.
const predictChunk = 4096

// PredictBatch classifies the batch in Predictor calls of up to
// predictChunk rows, routed through a cached nn.Predictor whose
// workers reuse their block scratch across chunks and across calls —
// repeated calls allocate only the returned slice. Predictions are
// bitwise those of Net.Predict (inference is row-independent, so
// chunking cannot change any output).
func (c *NNClassifier) PredictBatch(x [][]float64) []int {
	if len(x) == 0 {
		return nil
	}
	c.ensurePredictor()
	cols := len(x[0])
	out := make([]int, len(x))
	for lo := 0; lo < len(x); lo += predictChunk {
		hi := lo + predictChunk
		if hi > len(x) {
			hi = len(x)
		}
		in := c.ensureInput(hi-lo, cols)
		for i := lo; i < hi; i++ {
			if len(x[i]) != cols {
				panic(fmt.Sprintf("core: ragged batch: row %d has %d features, want %d", i, len(x[i]), cols))
			}
			copy(in.Data[(i-lo)*cols:(i-lo+1)*cols], x[i])
		}
		c.pred.PredictInto(out[lo:hi], in)
	}
	return out
}

// PredictDataset is PredictBatch fed straight from the packed backing
// store: a view of the packed rows is handed to
// nn.Predictor.PredictBitsInto, so scoring a dataset never builds the
// [][]float64 view. Predictions are bitwise those of PredictBatch on
// the Rows() view.
func (c *NNClassifier) PredictDataset(d *Dataset) []int {
	return c.predictDatasetInto(nil, d)
}

// predictDatasetInto is PredictDataset writing the classes into dst,
// grown only when its capacity is short. The Predictor cuts the rows
// into blocks itself, so the whole dataset is one call.
func (c *NNClassifier) predictDatasetInto(dst []int, d *Dataset) []int {
	c.ensurePredictor()
	return c.pred.PredictBitsInto(dst, datasetBits(d))
}

// ensurePredictor rebuilds the cached Predictor when Net was swapped.
func (c *NNClassifier) ensurePredictor() {
	if c.pred == nil || c.predNet != c.Net {
		c.pred = c.Net.NewPredictor()
		c.predNet = c.Net
		c.inBuf = nil
	}
}

// ensureInput reshapes the shared input matrix to rows×cols, reusing
// its backing array once the largest chunk shape has been seen.
func (c *NNClassifier) ensureInput(rows, cols int) *nn.Matrix {
	if m := c.inBuf; m == nil || cap(m.Data) < rows*cols {
		c.inBuf = nn.NewMatrix(rows, cols)
	} else {
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:rows*cols]
	}
	return c.inBuf
}

// Interface checks: the svm package models implement Classifier
// directly.
var (
	_ Classifier        = (*svm.LinearSVM)(nil)
	_ Classifier        = (*svm.Logistic)(nil)
	_ DatasetClassifier = (*NNClassifier)(nil)
	_ Classifier        = (*BitBiasClassifier)(nil)
)

// BitBiasClassifier is a non-ML analytic baseline: it estimates the
// per-bit means of each class during Fit and classifies by nearest
// mean under per-bit log-likelihood (naive Bayes over independent
// bits). It approximates what the all-in-one differential captures
// when output-difference bits are treated independently, and gives a
// floor any NN should beat or match.
type BitBiasClassifier struct {
	classes int
	dim     int
	logP    [][]float64 // [class][bit] log Pr[bit=1]
	logQ    [][]float64 // [class][bit] log Pr[bit=0]
}

// NewBitBiasClassifier constructs the baseline for the given shape.
func NewBitBiasClassifier(dim, classes int) (*BitBiasClassifier, error) {
	if dim <= 0 || classes < 2 {
		return nil, fmt.Errorf("core: invalid bit-bias shape dim=%d classes=%d", dim, classes)
	}
	return &BitBiasClassifier{classes: classes, dim: dim}, nil
}

// Name identifies the classifier.
func (b *BitBiasClassifier) Name() string { return "bit-bias" }

// Fit estimates per-class per-bit one-probabilities with Laplace
// smoothing.
func (b *BitBiasClassifier) Fit(x [][]float64, y []int) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("core: bit-bias fit: %d samples, %d labels", len(x), len(y))
	}
	ones := make([][]float64, b.classes)
	counts := make([]float64, b.classes)
	for c := range ones {
		ones[c] = make([]float64, b.dim)
	}
	for i, row := range x {
		if len(row) != b.dim {
			return fmt.Errorf("core: bit-bias fit: sample %d has %d features, want %d", i, len(row), b.dim)
		}
		c := y[i]
		if c < 0 || c >= b.classes {
			return fmt.Errorf("core: bit-bias fit: label %d out of range", c)
		}
		counts[c]++
		for j, v := range row {
			if v >= 0.5 {
				ones[c][j]++
			}
		}
	}
	b.logP = make([][]float64, b.classes)
	b.logQ = make([][]float64, b.classes)
	for c := 0; c < b.classes; c++ {
		b.logP[c] = make([]float64, b.dim)
		b.logQ[c] = make([]float64, b.dim)
		for j := 0; j < b.dim; j++ {
			p := (ones[c][j] + 1) / (counts[c] + 2) // Laplace smoothing
			b.logP[c][j] = logOf(p)
			b.logQ[c][j] = logOf(1 - p)
		}
	}
	return nil
}

func logOf(p float64) float64 {
	// Laplace smoothing keeps p in (0,1); guard anyway.
	if p <= 0 {
		p = 1e-12
	}
	return math.Log(p)
}

// Predict scores each class by the naive-Bayes log likelihood of the
// bit vector.
func (b *BitBiasClassifier) Predict(x []float64) int {
	if b.logP == nil {
		panic("core: bit-bias classifier not trained")
	}
	best, bestV := 0, math.Inf(-1)
	for c := 0; c < b.classes; c++ {
		s := 0.0
		lp, lq := b.logP[c], b.logQ[c]
		for j, v := range x {
			if v >= 0.5 {
				s += lp[j]
			} else {
				s += lq[j]
			}
		}
		if s > bestV {
			best, bestV = c, s
		}
	}
	return best
}

// PredictBatch loops the naive-Bayes rule over the batch.
func (b *BitBiasClassifier) PredictBatch(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		out[i] = b.Predict(row)
	}
	return out
}
