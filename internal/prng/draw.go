package prng

// Batched positional draws.
//
// The parallel dataset engine assigns row j of a dataset the positional
// substream NewStream(base, j) and draws a handful of words from it.
// Seeding costs four SplitMix64 steps per row and each word costs one
// xoshiro256** step — all pure 64-bit ALU work on independent streams,
// which vectorizes as four streams per YMM register. DrawWords64Strided
// exposes that batch shape: seed `rows` strided substreams of one base
// seed and emit each stream's first `wordsPerRow` outputs in one call.
//
// Output is column-major: out[w*rows+r] is word w of stream
// firstStream + r*stride. Columns keep the four lanes of an AVX2 group
// contiguous in memory (one unaligned store per word), and a column is
// exactly the per-row word that the bitsliced dataset windows feed to
// bits.Transpose64 — so the batched draws land transpose-ready without
// a per-row scatter.
//
// Both paths are bit-identical to StreamSeeder.Seed followed by scalar
// Uint64 calls; the scalar loop below is the conformance oracle for the
// assembly kernel.

func checkDrawShape(rows, wordsPerRow, outLen int) {
	if rows < 0 || wordsPerRow < 0 {
		panic("prng: negative draw shape")
	}
	if outLen < rows*wordsPerRow {
		panic("prng: draw output buffer too short")
	}
}

// DrawWords64Strided seeds the `rows` substreams base/firstStream,
// base/firstStream+stride, base/firstStream+2·stride, … and writes each
// stream's first wordsPerRow Uint64 outputs into out, column-major:
// out[w*rows+r] is word w of stream firstStream+r*stride. Sliced
// dataset windows interleave two classes over alternating rows, so
// their per-class draws use stride 2.
func DrawWords64Strided(base, firstStream, stride uint64, rows, wordsPerRow int, out []uint64) {
	checkDrawShape(rows, wordsPerRow, len(out))
	if rows == 0 || wordsPerRow == 0 {
		return
	}
	drawWords(base, firstStream, stride, rows, wordsPerRow, out)
}

// drawWordsScalar is the portable reference: per row, StreamSeeder.Seed
// plus wordsPerRow scalar Uint64 draws. Rows before fromRow are left
// untouched (the amd64 path uses it for the <4-row tail after the
// vector groups).
func drawWordsScalar(ss *StreamSeeder, firstStream, stride uint64, fromRow, rows, wordsPerRow int, out []uint64) {
	var r Rand
	for row := fromRow; row < rows; row++ {
		ss.Seed(&r, firstStream+uint64(row)*stride)
		for w := 0; w < wordsPerRow; w++ {
			out[w*rows+row] = r.Uint64()
		}
	}
}
