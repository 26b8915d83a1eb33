package core

import (
	"testing"

	"repro/internal/prng"
	"repro/internal/speck"
)

func TestGimliHashScenarioShape(t *testing.T) {
	s, err := NewGimliHashScenario(8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Classes() != 2 || s.FeatureLen() != 128 {
		t.Fatalf("classes=%d features=%d", s.Classes(), s.FeatureLen())
	}
	r := prng.New(1)
	for c := 0; c < 2; c++ {
		x := Sample(s, r, c)
		if len(x) != 128 {
			t.Fatalf("sample length %d", len(x))
		}
		for _, v := range x {
			if v != 0 && v != 1 {
				t.Fatalf("non-bit feature %v", v)
			}
		}
	}
	if len(RandomSample(s, r)) != 128 {
		t.Fatal("random sample wrong length")
	}
}

func TestGimliHashScenarioValidation(t *testing.T) {
	if _, err := NewGimliHashScenario(0); err == nil {
		t.Error("0 rounds accepted")
	}
	if _, err := NewGimliHashScenario(25); err == nil {
		t.Error("25 rounds accepted")
	}
	if _, err := CustomGimliHashScenario(8, 16, nil); err == nil {
		t.Error("full-block message accepted")
	}
	if _, err := CustomGimliHashScenario(8, 4, [][]byte{{1, 0, 0, 0}}); err == nil {
		t.Error("single difference accepted")
	}
	if _, err := CustomGimliHashScenario(8, 4, [][]byte{{1, 0, 0, 0}, {0, 0}}); err == nil {
		t.Error("wrong-length difference accepted")
	}
	if _, err := CustomGimliHashScenario(8, 4, [][]byte{{1, 0, 0, 0}, {0, 0, 0, 0}}); err == nil {
		t.Error("zero difference accepted")
	}
}

func TestGimliCipherScenarioShape(t *testing.T) {
	s, err := NewGimliCipherScenario(8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Classes() != 2 || s.FeatureLen() != 128 {
		t.Fatalf("classes=%d features=%d", s.Classes(), s.FeatureLen())
	}
	if s.Name() != "gimli-cipher-8r-t2" {
		t.Fatalf("name = %q", s.Name())
	}
	r := prng.New(2)
	x := Sample(s, r, 1)
	if len(x) != 128 {
		t.Fatalf("sample length %d", len(x))
	}
}

func TestGimliCipherScenarioValidation(t *testing.T) {
	if _, err := NewGimliCipherScenario(0); err == nil {
		t.Error("0 rounds accepted")
	}
	if _, err := CustomGimliCipherScenario(8, [][]byte{make([]byte, 16)}); err == nil {
		t.Error("single difference accepted")
	}
	bad := make([]byte, 16)
	ok := make([]byte, 16)
	ok[0] = 1
	if _, err := CustomGimliCipherScenario(8, [][]byte{ok, bad}); err == nil {
		t.Error("zero difference accepted")
	}
	if _, err := CustomGimliCipherScenario(8, [][]byte{ok, {1}}); err == nil {
		t.Error("short difference accepted")
	}
}

func TestScenarioSamplesAreClassDependent(t *testing.T) {
	// At low rounds the two classes must produce visibly different
	// feature distributions: measure the mean feature disagreement.
	s, _ := NewGimliCipherScenario(4)
	r := prng.New(3)
	const n = 200
	mean := func(class int) []float64 {
		acc := make([]float64, s.FeatureLen())
		for i := 0; i < n; i++ {
			for j, v := range Sample(s, r, class) {
				acc[j] += v
			}
		}
		for j := range acc {
			acc[j] /= n
		}
		return acc
	}
	m0, m1 := mean(0), mean(1)
	maxGap := 0.0
	for j := range m0 {
		gap := m0[j] - m1[j]
		if gap < 0 {
			gap = -gap
		}
		if gap > maxGap {
			maxGap = gap
		}
	}
	if maxGap < 0.2 {
		t.Fatalf("4-round class distributions too similar: max per-bit gap %v", maxGap)
	}
}

func TestRandomSampleIsBalanced(t *testing.T) {
	s, _ := NewGimliCipherScenario(8)
	r := prng.New(4)
	ones, total := 0, 0
	for i := 0; i < 200; i++ {
		for _, v := range RandomSample(s, r) {
			if v == 1 {
				ones++
			}
			total++
		}
	}
	frac := float64(ones) / float64(total)
	if frac < 0.48 || frac > 0.52 {
		t.Fatalf("random sample bit fraction %v", frac)
	}
}

func TestSpeckScenario(t *testing.T) {
	s, err := NewSpeckScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	if s.FeatureLen() != 32 || s.Classes() != 2 {
		t.Fatalf("shape %d/%d", s.FeatureLen(), s.Classes())
	}
	r := prng.New(5)
	if got := len(Sample(s, r, 1)); got != 32 {
		t.Fatalf("sample length %d", got)
	}
	if _, err := NewSpeckScenario(0); err == nil {
		t.Error("0 rounds accepted")
	}
	if _, err := NewSpeckScenario(23); err == nil {
		t.Error("23 rounds accepted")
	}
	if s.Delta != (speck.Block{X: 0x0040}) {
		t.Fatalf("delta = %+v", s.Delta)
	}
}

func TestFuncScenario(t *testing.T) {
	// Identity function: output difference equals input difference, so
	// the classes are trivially separable.
	id := func(p []byte) []byte { return append([]byte(nil), p...) }
	s, err := NewFuncScenario("identity", id, 4, 4, [][]byte{{1, 0, 0, 0}, {0, 0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	r := prng.New(6)
	x0 := Sample(s, r, 0)
	if x0[0] != 1 || x0[31] != 0 {
		t.Fatalf("identity class-0 diff wrong: %v", x0)
	}
	x1 := Sample(s, r, 1)
	if x1[0] != 0 || x1[24] != 1 {
		t.Fatalf("identity class-1 diff wrong: %v", x1)
	}
}

func TestFuncScenarioValidation(t *testing.T) {
	id := func(p []byte) []byte { return p }
	if _, err := NewFuncScenario("x", nil, 4, 4, nil); err == nil {
		t.Error("nil function accepted")
	}
	if _, err := NewFuncScenario("x", id, 0, 4, nil); err == nil {
		t.Error("zero input length accepted")
	}
	if _, err := NewFuncScenario("x", id, 4, 4, [][]byte{{1, 0, 0, 0}}); err == nil {
		t.Error("one difference accepted")
	}
	if _, err := NewFuncScenario("x", id, 4, 4, [][]byte{{1, 0, 0, 0}, {1, 0}}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestFuncScenarioPanicsOnBadOutputLen(t *testing.T) {
	f := func(p []byte) []byte { return p[:2] }
	s, _ := NewFuncScenario("short", f, 4, 4, [][]byte{{1, 0, 0, 0}, {2, 0, 0, 0}})
	defer func() {
		if recover() == nil {
			t.Fatal("short output accepted")
		}
	}()
	Sample(s, prng.New(1), 0)
}

func TestMultiClassScenario(t *testing.T) {
	// t = 4 differences: the framework is not limited to two classes.
	deltas := make([][]byte, 4)
	for i := range deltas {
		deltas[i] = make([]byte, 16)
		deltas[i][4*i] = 1
	}
	s, err := CustomGimliCipherScenario(4, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if s.Classes() != 4 {
		t.Fatalf("classes = %d", s.Classes())
	}
	r := prng.New(7)
	d := GenerateDataset(s, 8, r)
	if d.Len() != 32 {
		t.Fatalf("dataset size %d", d.Len())
	}
	counts := map[int]int{}
	for _, y := range d.Y {
		counts[y]++
	}
	for c := 0; c < 4; c++ {
		if counts[c] != 8 {
			t.Fatalf("class %d has %d samples", c, counts[c])
		}
	}
}
