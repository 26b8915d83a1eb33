package nn

import (
	"bytes"
	"testing"

	"repro/internal/prng"
)

// FuzzLoadArbitraryBytes: Load must reject arbitrary byte streams with
// an error, never a panic — model files cross process boundaries
// (training writes, experiments read), so a corrupt file must fail
// loudly and recoverably.
func FuzzLoadArbitraryBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a model"))
	// Valid model files as seeds, one per layer kind the loader
	// accepts, so the fuzzer explores mutations of real gob structure,
	// not just random prefixes.
	r := prng.New(1)
	mlp, err := MLP(4, []int{3}, 2, ReLU, r)
	if err != nil {
		f.Fatal(err)
	}
	cnn, err := NewNetwork(NewConv1D(4, 1, 2, 3, r), NewDense(8, 2, r))
	if err != nil {
		f.Fatal(err)
	}
	lstm, err := NewNetwork(NewLSTM(2, 2, 3, r), NewDense(3, 2, r))
	if err != nil {
		f.Fatal(err)
	}
	for _, net := range []*Network{mlp, cnn, lstm} {
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Load(bytes.NewReader(data))
		if err == nil && n == nil {
			t.Fatal("Load returned nil network without error")
		}
	})
}

// FuzzSaveLoadRoundTrip: for arbitrary small architectures, a saved
// model must load back and produce identical inference output.
func FuzzSaveLoadRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(2), uint64(1))
	f.Add(uint8(1), uint8(1), uint8(2), uint64(99))
	f.Fuzz(func(t *testing.T, inRaw, hiddenRaw, classesRaw uint8, seed uint64) {
		in := int(inRaw%8) + 1
		hidden := int(hiddenRaw%8) + 1
		classes := int(classesRaw%4) + 2
		net, err := MLP(in, []int{hidden}, classes, ReLU, prng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("round-trip load: %v", err)
		}
		x := NewMatrix(3, in)
		r := prng.New(seed + 1)
		for i := range x.Data {
			x.Data[i] = r.NormFloat64()
		}
		a, b := net.Probs(x), loaded.Probs(x)
		if len(a.Data) != len(b.Data) {
			t.Fatalf("output shapes differ: %d vs %d", len(a.Data), len(b.Data))
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("output %d differs after round-trip: %v vs %v", i, a.Data[i], b.Data[i])
			}
		}
	})
}
