package core

import (
	"runtime"
	"sync"

	"repro/internal/bits"
	"repro/internal/prng"
)

// Dataset is a labelled sample collection. Features are {0,1} bits, so
// the backing store is packed: one contiguous []uint64 bit matrix
// (wordsPerRow words per sample, bit i of a row at bit i%64 of word
// i/64 — the bits.PackFloats layout) plus one contiguous label slice.
// At the paper's 2^17.6-sample budget this is a 64× memory reduction
// over the former [][]float64 store, and generation writes rows without
// per-row heap allocation.
//
// Float views are materialized on demand: Row expands one sample into
// caller scratch, Rows materializes (and caches) the whole matrix for
// classifiers that want the legacy [][]float64 shape.
type Dataset struct {
	Y []int

	feat  int      // features (bits) per sample
	words int      // uint64 words per sample
	bits  []uint64 // packed bit matrix, len(Y)*words words
	rows  [][]float64
}

// newDataset allocates a packed dataset for n samples of feat bits.
func newDataset(n, feat int) *Dataset {
	words := bits.PackedWords(feat)
	return &Dataset{
		Y:     make([]int, n),
		feat:  feat,
		words: words,
		bits:  make([]uint64, n*words),
	}
}

// resize reshapes d to n samples over its existing backing store (n
// must not exceed the size it was allocated with) and drops the cached
// float view, so the rows can be refilled and scored again.
func (d *Dataset) resize(n int) {
	d.Y = d.Y[:n]
	d.bits = d.bits[:n*d.words]
	d.rows = nil
}

// pastFeatures reports whether a packed row of feat features sets any
// bit past feature feat−1 in its last word.
func pastFeatures(row []uint64, feat int) bool {
	tail := feat % 64
	return tail != 0 && row[len(row)-1]>>uint(tail) != 0
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// FeatureLen returns the number of features (bits) per sample.
func (d *Dataset) FeatureLen() int { return d.feat }

// WordsPerRow returns the number of uint64 words backing each sample.
func (d *Dataset) WordsPerRow() int { return d.words }

// Packed returns the packed words of row i. The slice aliases the
// backing store; treat it as read-only.
func (d *Dataset) Packed(i int) []uint64 {
	return d.bits[i*d.words : (i+1)*d.words : (i+1)*d.words]
}

// PackedBits returns the whole packed bit matrix, row-major. The slice
// aliases the backing store; treat it as read-only.
func (d *Dataset) PackedBits() []uint64 { return d.bits }

// Row expands row i into scratch and returns the FeatureLen-long float
// view, reallocating only when scratch is too small. The returned
// slice aliases scratch: it stays valid until the next Row call on the
// same scratch, so callers iterating rows reuse one buffer —
//
//	var scratch []float64
//	for i := 0; i < d.Len(); i++ {
//		row := d.Row(i, scratch)
//		scratch = row // reuse; row is invalidated by the next call
//	}
func (d *Dataset) Row(i int, scratch []float64) []float64 {
	if cap(scratch) < d.feat {
		scratch = make([]float64, d.feat)
	}
	return bits.ExpandBits(scratch[:d.feat], d.Packed(i), d.feat)
}

// Rows materializes the legacy [][]float64 view of the whole dataset,
// backed by one contiguous float allocation, and caches it: repeated
// calls return the same slices. It is the adapter between the packed
// store and Classifier.Fit/PredictBatch implementations that take
// float rows; the packed-aware paths (DatasetClassifier) never call it.
func (d *Dataset) Rows() [][]float64 {
	if d.rows != nil || d.Len() == 0 {
		return d.rows
	}
	flat := make([]float64, d.Len()*d.feat)
	rows := make([][]float64, d.Len())
	for i := range rows {
		row := flat[i*d.feat : (i+1)*d.feat : (i+1)*d.feat]
		bits.ExpandBits(row, d.Packed(i), d.feat)
		rows[i] = row
	}
	d.rows = rows
	return rows
}

// GenerateDataset draws perClass cipher samples for each of the
// scenario's classes, interleaved so that truncation keeps balance.
// Rows are written by SampleBatch straight into the dataset's packed
// backing store (see Dataset). Read samples back through Row/Rows; the
// float views those return are materialized lazily, and a Row view is
// only valid until the next Row call on the same scratch slice.
//
// Determinism contract: exactly one output is consumed from r to
// derive a base seed, and row j (canonical interleaved order: sample
// i of class c sits at row i*t+c) is drawn from the positional
// substream prng.NewStream(base, j). Because each row owns its
// substream, any partition of rows across workers reproduces the same
// bytes — GenerateDataset and GenerateDatasetParallel are
// interchangeable at every worker count, and the slice windows are
// byte-identical to per-row SampleBatch (regression-tested across
// every registered scenario).
func GenerateDataset(s Scenario, perClass int, r *prng.Rand) *Dataset {
	return GenerateDatasetParallel(s, perClass, r, 1)
}

// GenerateDatasetParallel is GenerateDataset sharded across workers
// goroutines (workers <= 0 selects runtime.GOMAXPROCS). The output is
// byte-identical to GenerateDataset for the same scenario, perClass
// and generator state, regardless of worker count; see the
// determinism contract on GenerateDataset.
func GenerateDatasetParallel(s Scenario, perClass int, r *prng.Rand, workers int) *Dataset {
	if perClass < 0 {
		perClass = 0
	}
	t := s.Classes()
	n := perClass * t
	// The base seed is drawn unconditionally — even for an empty
	// dataset — so generator-state consumption is independent of
	// perClass and callers sequencing multiple generations stay
	// reproducible.
	base := r.Uint64()
	d := newDataset(n, s.FeatureLen())
	ss, _ := s.(SliceScenario)
	// fill generates rows [lo, hi): bitsliced slice windows first when
	// the scenario has them, then one SampleBatch per row from the row's
	// positional substream. Both paths consume exactly the same draws per
	// row, so shard boundaries cannot shift any stream. The engine
	// allocates nothing per row: rows are packed into the preallocated
	// backing store.
	fill := func(lo, hi int, rw *prng.Rand) {
		j := lo
		if ss != nil {
			w := ss.SliceRows()
			for ; j+w <= hi; j += w {
				ss.SampleSlice(rw, base, j, d.bits[j*d.words:(j+w)*d.words], d.Y[j:j+w])
			}
		}
		for ; j < hi; j++ {
			rw.SeedStream(base, uint64(j))
			c := j % t
			s.SampleBatch(rw, c, d.Packed(j))
			d.Y[j] = c
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Extra goroutines beyond the schedulable parallelism only add
	// scheduling overhead (sampling never blocks), and the determinism
	// contract makes worker count invisible in the output — so clamp,
	// and run the single-worker case inline with no goroutine at all.
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 0 {
		fill(0, n, &prng.Rand{})
		return d
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fill(lo, hi, &prng.Rand{})
		}(lo, hi)
	}
	wg.Wait()
	return d
}
