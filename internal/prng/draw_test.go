package prng

import "testing"

// Reference vectors from the Blackman–Vigna reference implementations
// (splitmix64.c / xoshiro256starstar.c, https://prng.di.unimi.it/):
// first outputs of SplitMix64 from known seeds and of xoshiro256**
// from a known state. These pin the generator contract itself, not
// just self-consistency — seed 0's first SplitMix64 output
// 0xe220a8397b1dcdaf is the widely-published check value.

var splitMix64KAT = []struct {
	seed uint64
	want []uint64
}{
	{0, []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
		0xf88bb8a8724c81ec, 0x1b39896a51a8749b, 0x53cb9f0c747ea2ea,
		0x2c829abe1f4532e1, 0xc584133ac916ab3c,
	}},
	// Seeding with the increment itself shifts the sequence by one.
	{0x9e3779b97f4a7c15, []uint64{
		0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec,
		0x1b39896a51a8749b, 0x53cb9f0c747ea2ea, 0x2c829abe1f4532e1,
		0xc584133ac916ab3c, 0x3ee5789041c98ac3,
	}},
}

func TestSplitMix64KAT(t *testing.T) {
	for _, c := range splitMix64KAT {
		s := c.seed
		for i, want := range c.want {
			if got := splitMix64(&s); got != want {
				t.Fatalf("splitMix64 seed %#x output %d = %#x, want %#x", c.seed, i, got, want)
			}
		}
	}
}

func TestXoshiro256StarStarKAT(t *testing.T) {
	// xoshiro256** from state {1,2,3,4}; first two outputs (11520, 0)
	// are hand-derivable from the update rule, the rest transcribed
	// from the reference implementation.
	r := &Rand{s: [4]uint64{1, 2, 3, 4}}
	want := []uint64{
		0x0000000000002d00, 0x0000000000000000, 0x000000005a007080,
		0x10e0000000009d80, 0x10e0b61ce1009d80, 0x0870021ce143ad00,
		0xe071c3c2e143f089, 0x75a1690ef7a20380,
	}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("xoshiro256** output %d = %#x, want %#x", i, got, w)
		}
	}
}

// drawOracle is the per-row reference the batched paths must match:
// StreamSeeder.Seed plus scalar Uint64 draws, row-major iteration but
// column-major output layout.
func drawOracle(base, firstStream, stride uint64, rows, wordsPerRow int) []uint64 {
	out := make([]uint64, rows*wordsPerRow)
	ss := NewStreamSeeder(base)
	var r Rand
	for row := 0; row < rows; row++ {
		ss.Seed(&r, firstStream+uint64(row)*stride)
		for w := 0; w < wordsPerRow; w++ {
			out[w*rows+row] = r.Uint64()
		}
	}
	return out
}

func TestDrawWords64MatchesPerRowDraws(t *testing.T) {
	shapes := []struct {
		rows, words int
		stride      uint64
	}{
		{1, 1, 1}, {3, 2, 1}, {4, 6, 1}, {5, 1, 2}, {7, 3, 2},
		{64, 6, 2}, {128, 1, 1}, {64, 9, 2}, {66, 4, 3}, {2, 8, 0},
	}
	for _, sh := range shapes {
		for _, base := range []uint64{0, 2020, 0xdeadbeefcafef00d} {
			for _, first := range []uint64{0, 1, 143, 1 << 40} {
				want := drawOracle(base, first, sh.stride, sh.rows, sh.words)
				got := make([]uint64, sh.rows*sh.words)
				DrawWords64Strided(base, first, sh.stride, sh.rows, sh.words, got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("DrawWords64Strided(base=%#x, first=%d, stride=%d, rows=%d, words=%d): out[%d] = %#x, want %#x",
							base, first, sh.stride, sh.rows, sh.words, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestDrawZeroShapes(t *testing.T) {
	// Zero rows or words must be a no-op, not a panic.
	DrawWords64Strided(1, 0, 1, 0, 5, nil)
	DrawWords64Strided(1, 0, 1, 5, 0, nil)
}

func TestDrawShapePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("negative rows", func() { DrawWords64Strided(1, 0, 1, -1, 1, nil) })
	mustPanic("negative words", func() { DrawWords64Strided(1, 0, 1, 1, -1, nil) })
	mustPanic("short out", func() { DrawWords64Strided(1, 0, 1, 4, 2, make([]uint64, 7)) })
}

func BenchmarkSeedStream(b *testing.B) {
	ss := NewStreamSeeder(2020)
	var r Rand
	var sink uint64
	for i := 0; i < b.N; i++ {
		ss.Seed(&r, uint64(i))
		sink ^= r.Uint64()
	}
	benchSink = sink
}

func BenchmarkDrawBatch(b *testing.B) {
	// The sweep-scenario shape: one 128-row window's class-1 draws
	// (64 streams × 6 words, stride 2).
	var out [64 * 6]uint64
	b.Run("64x6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DrawWords64Strided(2020, 1, 2, 64, 6, out[:])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/row")
	})
	b.Run("128x1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DrawWords64Strided(2020, 0, 2, 128, 1, out[:128])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*128), "ns/row")
	})
}

var benchSink uint64
