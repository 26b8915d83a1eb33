package core

import (
	"bytes"
	"testing"

	"repro/internal/prng"
)

// FuzzLoadDistinguisher: distinguisher files cross process boundaries
// (training writes them, the serving layer and -loaddist read them),
// so LoadDistinguisher must reject arbitrary or corrupted byte streams
// with a descriptive error — never a panic, and never a structurally
// inconsistent *Distinguisher.
func FuzzLoadDistinguisher(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a distinguisher"))
	// A valid file as a seed so the fuzzer mutates real gob structure
	// (outer distFile framing and the embedded nn model bytes), not
	// just random prefixes.
	s, err := NewSpeckScenario(5)
	if err != nil {
		f.Fatal(err)
	}
	c, err := NewMLPClassifier(s.FeatureLen(), s.Classes(), 4, 1)
	if err != nil {
		f.Fatal(err)
	}
	d := &Distinguisher{Scenario: s, Classifier: c, Accuracy: 0.75, TrainAccuracy: 0.8, TrainSamples: 16, ValSamples: 8}
	var buf bytes.Buffer
	if err := SaveDistinguisher(&buf, d, "speck", 5); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		ld, err := LoadDistinguisher(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that loads must be internally consistent: scenario
		// present and model shaped for it.
		if ld == nil || ld.Scenario == nil || ld.Classifier == nil {
			t.Fatal("LoadDistinguisher returned incomplete distinguisher without error")
		}
		nc, ok := ld.Classifier.(*NNClassifier)
		if !ok {
			t.Fatalf("loaded classifier is %T, want *NNClassifier", ld.Classifier)
		}
		if nc.Net.InDim() != ld.Scenario.FeatureLen() || nc.Net.Classes() != ld.Scenario.Classes() {
			t.Fatalf("loaded model shape %d→%d does not match scenario %s",
				nc.Net.InDim(), nc.Net.Classes(), ld.Scenario.Name())
		}
		if ld.Accuracy < 0 || ld.Accuracy > 1 {
			t.Fatalf("loaded accuracy %v outside [0,1]", ld.Accuracy)
		}
	})
}

// FuzzLoadDataset: LoadDataset must survive arbitrary input the same
// way — and anything that loads must have a self-consistent packed
// backing store, so Row/Rows cannot index out of bounds later.
func FuzzLoadDataset(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a dataset"))
	s, err := NewSpeckScenario(5)
	if err != nil {
		f.Fatal(err)
	}
	ds := GenerateDataset(s, 3, prng.New(1))
	var buf bytes.Buffer
	if err := SaveDataset(&buf, ds); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		ld, err := LoadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		if ld == nil {
			t.Fatal("LoadDataset returned nil dataset without error")
		}
		// Exercise the accessors a consumer would hit: every row view
		// must be materializable, and no row may carry bits past the
		// feature length (a packed first layer would index them).
		var scratch []float64
		tail := ld.FeatureLen() % 64
		for i := 0; i < ld.Len(); i++ {
			scratch = ld.Row(i, scratch)
			if ld.Y[i] < 0 {
				t.Fatalf("label %d negative after successful load", i)
			}
			if p := ld.Packed(i); tail != 0 && p[len(p)-1]>>tail != 0 {
				t.Fatalf("row %d has bits past feature %d after successful load", i, ld.FeatureLen())
			}
		}
	})
}
