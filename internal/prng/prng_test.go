package prng

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"strconv"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided on %d of 100 outputs", same)
	}
}

func TestZeroSeedNotDegenerate(t *testing.T) {
	r := New(0)
	var orAll uint64
	for i := 0; i < 64; i++ {
		orAll |= r.Uint64()
	}
	if orAll == 0 {
		t.Fatal("seed 0 produced an all-zero stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 7, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

// TestIntnRejectionLoop pins Intn's bias removal against Lemire's rule,
// recomputed on a copy of the generator: the result is the high half of
// x·n for the first draw x whose low half is at least (−n) mod n. At
// n ≈ 0.75·MaxInt on a 64-bit platform that threshold is a quarter of
// the 64-bit range, so about one draw in four is rejected.
func TestIntnRejectionLoop(t *testing.T) {
	n := math.MaxInt / 4 * 3
	un := uint64(n)
	thresh := -un % un
	r := New(5)
	const draws = 4000
	rejected := 0
	for i := 0; i < draws; i++ {
		ref := *r
		var want uint64
		for {
			hi, lo := mathbits.Mul64(ref.Uint64(), un)
			if lo >= thresh {
				want = hi
				break
			}
			rejected++
		}
		if got := r.Intn(n); uint64(got) != want {
			t.Fatalf("draw %d: Intn(%d) = %d, Lemire's rule gives %d", i, n, got, want)
		}
		if *r != ref {
			t.Fatalf("draw %d: Intn consumed a different number of outputs than the rule", i)
		}
	}
	if strconv.IntSize == 64 && rejected < draws/8 {
		t.Fatalf("only %d of %d draws rejected; the loop went unexercised", rejected, draws)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared test over 16 buckets. With 160k draws the expected
	// count is 10k per bucket; the 0.999 quantile of chi2(15) is ~37.7.
	r := New(99)
	const buckets = 16
	const draws = 160000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.7 {
		t.Fatalf("chi-squared = %.2f exceeds 37.7; counts = %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(12345)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("sample mean %.4f too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("sample variance %.4f too far from 1", variance)
	}
}

func TestFillCoversAllLengths(t *testing.T) {
	r := New(3)
	for n := 0; n <= 33; n++ {
		p := r.Bytes(n)
		if len(p) != n {
			t.Fatalf("Bytes(%d) returned %d bytes", n, len(p))
		}
	}
	// A 17-byte fill should not be constant.
	p := r.Bytes(17)
	allSame := true
	for _, b := range p[1:] {
		if b != p[0] {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("Fill produced a constant buffer")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(42)
	child := parent.Split()
	// The child stream must differ from the parent's continuation.
	diff := false
	for i := 0; i < 64; i++ {
		if parent.Uint64() != child.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("Split produced a stream identical to the parent")
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestByteAndSmallInts(t *testing.T) {
	r := New(8)
	seen := map[byte]bool{}
	for i := 0; i < 4096; i++ {
		seen[r.Byte()] = true
	}
	if len(seen) < 250 {
		t.Fatalf("Byte() covered only %d of 256 values in 4096 draws", len(seen))
	}
	_ = r.Uint32()
	_ = r.Uint16()
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFill16(b *testing.B) {
	r := New(1)
	p := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		r.Fill(p)
	}
}

func TestNewStreamPositional(t *testing.T) {
	// Stream i of a seed is a pure function of (seed, i): creating the
	// streams in any order, or interleaved with other streams, must not
	// change their output.
	a := NewStream(42, 3)
	_ = NewStream(42, 0) // unrelated stream creation in between
	b := NewStream(42, 3)
	for i := 0; i < 64; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("stream 3 diverged at draw %d: %#x vs %#x", i, av, bv)
		}
	}
}

func TestNewStreamDistinct(t *testing.T) {
	// Neighbouring streams and neighbouring seeds must not collide.
	seen := map[uint64]string{}
	for seed := uint64(0); seed < 8; seed++ {
		for stream := uint64(0); stream < 256; stream++ {
			v := NewStream(seed, stream).Uint64()
			if prev, ok := seen[v]; ok {
				t.Fatalf("first output %#x of (seed=%d,stream=%d) collides with %s", v, seed, stream, prev)
			}
			seen[v] = fmt.Sprintf("(seed=%d,stream=%d)", seed, stream)
		}
	}
}

func TestSeedStreamMatchesNewStream(t *testing.T) {
	r := New(7) // arbitrary prior state must be fully overwritten
	_ = r.Uint64()
	r.SeedStream(99, 17)
	want := NewStream(99, 17)
	for i := 0; i < 32; i++ {
		if a, b := r.Uint64(), want.Uint64(); a != b {
			t.Fatalf("SeedStream state differs from NewStream at draw %d", i)
		}
	}
}

func TestNewStreamUniformity(t *testing.T) {
	// Pooled first outputs across streams should still look uniform:
	// reuse the Intn-style bucket test over the first draw of 4096
	// consecutive streams.
	const streams, buckets = 4096, 16
	counts := make([]int, buckets)
	for i := uint64(0); i < streams; i++ {
		counts[NewStream(5, i).Uint64()%buckets]++
	}
	want := float64(streams) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d has %d first-outputs, want ≈ %.0f", b, c, want)
		}
	}
}

func TestStreamSeederMatchesSeedStream(t *testing.T) {
	// The seeder hoists the seed half of the mixing chain; the state it
	// produces must be indistinguishable from a fresh SeedStream for
	// every stream, including stream values that trip the zero guard's
	// code path (the guard itself is unreachable for real mixes, but
	// the seeder must share SeedStream's exact branch structure).
	for _, seed := range []uint64{0, 1, 99, 0xdeadbeefcafef00d} {
		ss := NewStreamSeeder(seed)
		var r Rand
		for stream := uint64(0); stream < 64; stream++ {
			ss.Seed(&r, stream)
			want := NewStream(seed, stream)
			for i := 0; i < 8; i++ {
				if a, b := r.Uint64(), want.Uint64(); a != b {
					t.Fatalf("seed %d stream %d: seeder state differs from SeedStream at draw %d", seed, stream, i)
				}
			}
		}
	}
}

func TestStreamSeederOverwritesPriorState(t *testing.T) {
	ss := NewStreamSeeder(99)
	r := New(7)
	_ = r.Uint64()
	ss.Seed(r, 17)
	want := NewStream(99, 17)
	for i := 0; i < 32; i++ {
		if a, b := r.Uint64(), want.Uint64(); a != b {
			t.Fatalf("seeder left prior state visible at draw %d", i)
		}
	}
}
