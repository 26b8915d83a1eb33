package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/prng"
)

// newInitRand supplies throwaway initialization randomness for layers
// whose weights are about to be overwritten by deserialization.
func newInitRand() *prng.Rand { return prng.New(0) }

// The paper stores its trained Keras model in an ".h5" file and reloads
// it for the online phase; this file provides the equivalent for our
// networks using encoding/gob. A saved model is a sequence of layer
// specs (constructor configuration) plus the flat weight buffers in
// Params() order.

// layerSpec is the serializable description of one layer.
type layerSpec struct {
	Kind string // "dense", "act", "conv1d", "lstm"

	// Dense.
	In, Out int
	// Activation.
	Act int
	Dim int
	// Conv1D.
	SeqLen, InCh, Filters, Kernel int
	// LSTM.
	LSeq, LIn, LHidden int
	ReturnSeq          bool

	Weights [][]float64 // one buffer per Param, in Params() order
}

type modelFile struct {
	Magic   string
	Version int
	Layers  []layerSpec
}

const (
	modelMagic   = "mldd-model"
	modelVersion = 1
)

// Save writes the network to w.
func (n *Network) Save(w io.Writer) error {
	mf := modelFile{Magic: modelMagic, Version: modelVersion}
	for _, l := range n.layers {
		spec, err := specOf(l)
		if err != nil {
			return err
		}
		mf.Layers = append(mf.Layers, spec)
	}
	return gob.NewEncoder(w).Encode(&mf)
}

// specOf converts one layer to its serializable form.
func specOf(l Layer) (layerSpec, error) {
	var spec layerSpec
	switch v := l.(type) {
	case *Dense:
		spec = layerSpec{Kind: "dense", In: v.In, Out: v.Out}
	case *Activation:
		spec = layerSpec{Kind: "act", Act: int(v.Kind), Dim: v.Dim}
	case *Conv1D:
		spec = layerSpec{Kind: "conv1d", SeqLen: v.SeqLen, InCh: v.InCh, Filters: v.Filters, Kernel: v.Kernel}
	case *LSTM:
		spec = layerSpec{Kind: "lstm", LSeq: v.SeqLen, LIn: v.In, LHidden: v.Hidden, ReturnSeq: v.ReturnSeq}
	default:
		return spec, fmt.Errorf("nn: cannot serialize layer type %T", l)
	}
	for _, p := range l.Params() {
		buf := make([]float64, len(p.W))
		copy(buf, p.W)
		spec.Weights = append(spec.Weights, buf)
	}
	return spec, nil
}

// Load reads a network previously written by Save.
func Load(r io.Reader) (*Network, error) {
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	if mf.Magic != modelMagic {
		return nil, fmt.Errorf("nn: not a model file (magic %q)", mf.Magic)
	}
	if mf.Version != modelVersion {
		return nil, fmt.Errorf("nn: unsupported model version %d", mf.Version)
	}
	var layers []Layer
	for i, spec := range mf.Layers {
		l, err := layerOf(spec, i)
		if err != nil {
			return nil, err
		}
		layers = append(layers, l)
	}
	return NewNetwork(layers...)
}

// layerOf reconstructs one layer from its spec. The file's weight
// buffers are checked against the declared shape before the layer is
// built, so a few bytes declaring a huge layer fail instead of making
// Load allocate it.
func layerOf(spec layerSpec, i int) (Layer, error) {
	// Weight loading overwrites the init, so a fixed dummy seed is fine.
	dummy := newInitRand()
	var shapes [][]int // each weight buffer's dimensions, in Params() order
	var build func() Layer
	switch spec.Kind {
	case "dense":
		if spec.In <= 0 || spec.Out <= 0 {
			return nil, fmt.Errorf("nn: layer %d: bad dense shape %d→%d", i, spec.In, spec.Out)
		}
		shapes = [][]int{{spec.In, spec.Out}, {spec.Out}}
		build = func() Layer { return NewDense(spec.In, spec.Out, dummy) }
	case "act":
		if spec.Act < int(ReLU) || spec.Act > int(Tanh) {
			return nil, fmt.Errorf("nn: layer %d: unknown activation kind %d", i, spec.Act)
		}
		if spec.Dim <= 0 {
			return nil, fmt.Errorf("nn: layer %d: bad activation width %d", i, spec.Dim)
		}
		build = func() Layer { return NewActivation(ActKind(spec.Act), spec.Dim) }
	case "conv1d":
		if spec.SeqLen <= 0 || spec.InCh <= 0 || spec.Filters <= 0 || spec.Kernel <= 0 || spec.Kernel%2 == 0 {
			return nil, fmt.Errorf("nn: layer %d: bad conv1d config", i)
		}
		shapes = [][]int{{spec.Filters, spec.Kernel, spec.InCh}, {spec.Filters}}
		build = func() Layer { return NewConv1D(spec.SeqLen, spec.InCh, spec.Filters, spec.Kernel, dummy) }
	case "lstm":
		if spec.LSeq <= 0 || spec.LIn <= 0 || spec.LHidden <= 0 {
			return nil, fmt.Errorf("nn: layer %d: bad lstm config", i)
		}
		shapes = [][]int{{spec.LIn, 4, spec.LHidden}, {spec.LHidden, 4, spec.LHidden}, {4, spec.LHidden}}
		build = func() Layer {
			lst := NewLSTM(spec.LSeq, spec.LIn, spec.LHidden, dummy)
			lst.ReturnSeq = spec.ReturnSeq
			return lst
		}
	default:
		return nil, fmt.Errorf("nn: layer %d: unknown kind %q", i, spec.Kind)
	}
	if len(spec.Weights) != len(shapes) {
		return nil, fmt.Errorf("nn: layer %d: %d weight buffers for %d params", i, len(spec.Weights), len(shapes))
	}
	for j, shape := range shapes {
		if !isProduct(len(spec.Weights[j]), shape) {
			return nil, fmt.Errorf("nn: layer %d param %d: %d weights, want shape %v", i, j, len(spec.Weights[j]), shape)
		}
	}
	l := build()
	for j, p := range l.Params() {
		copy(p.W, spec.Weights[j])
	}
	return l, nil
}

// isProduct reports whether n equals the product of dims (each ≥ 1),
// deciding it by division so that no product of declared dimensions
// can overflow.
func isProduct(n int, dims []int) bool {
	for _, d := range dims {
		if n%d != 0 {
			return false
		}
		n /= d
	}
	return n == 1
}

// SaveFile writes the network to path.
func (n *Network) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := n.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a network from path.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
