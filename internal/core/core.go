// Package core implements the paper's primary contribution: the
// machine-learning-assisted differential distinguisher of Algorithm 2.
//
// The attacker fixes t ≥ 2 input differences δ0 … δ(t−1). Offline, for
// random inputs P, the output differences CIPHER(P) ⊕ CIPHER(P ⊕ δi)
// are collected as class-i training samples and a classifier is fit; if
// its accuracy a exceeds the random baseline 1/t, a distinguisher
// exists. Online, the same queries are made against an unknown ORACLE:
// if the classifier's accuracy a′ stays near a the oracle is the
// cipher, if it drops to 1/t the oracle is random.
//
// The package is organized around three small interfaces:
//
//   - Scenario — a concrete instantiation of "choose differences, build
//     the output-difference feature vector" for one target (GIMLI-HASH,
//     GIMLI-CIPHER, SPECK, or anything user-provided).
//   - Classifier — anything with Fit/Predict; adapters exist for the
//     internal/nn networks and the internal/svm models.
//   - Oracle — the online phase's query interface, with cipher and
//     random implementations.
//
// Everything is deterministic given a seed.
package core

import (
	"repro/internal/bits"
	"repro/internal/prng"
)

// Scenario produces labelled output-difference samples for a chosen
// set of input differences. Implementations must be deterministic
// functions of the provided generator.
//
// SampleBatch is the scenario's one sampler and its conformance oracle:
// dataset generation, the online oracles and the float views below all
// derive from it. testkit.CheckScenario holds every registered scenario
// to this contract, and the package tests compare each against a
// specification reference built from the cipher packages' scalar API.
type Scenario interface {
	// Name identifies the scenario in reports.
	Name() string
	// Classes returns t, the number of input differences.
	Classes() int
	// FeatureLen returns the length of the feature vectors (bits of
	// observed output difference).
	FeatureLen() int
	// SampleBatch writes one cipher output-difference sample for the
	// class (difference index) into dst: bit i of the feature vector at
	// bit i%64 of dst[i/64] (the bits.PackFloats layout). dst has bits.PackedWords(FeatureLen()) words; every word
	// is overwritten and the bits past FeatureLen are zero.
	SampleBatch(r *prng.Rand, class int, dst []uint64)
}

// Sample returns one cipher output-difference feature vector for the
// class as {0,1} floats: CipherOracle.QueryBits, which is SampleBatch,
// expanded.
func Sample(s Scenario, r *prng.Rand, class int) []float64 {
	n := s.FeatureLen()
	packed := make([]uint64, bits.PackedWords(n))
	s.SampleBatch(r, class, packed)
	return bits.ExpandBits(make([]float64, n), packed, n)
}

// RandomSample returns what the same query would produce if the oracle
// were a random function: a uniformly random FeatureLen-bit difference,
// RandomOracle.QueryBits expanded.
func RandomSample(s Scenario, r *prng.Rand) []float64 {
	n := s.FeatureLen()
	packed := make([]uint64, bits.PackedWords(n))
	RandomOracle{S: s}.QueryBits(r, 0, packed)
	return bits.ExpandBits(make([]float64, n), packed, n)
}

// SliceScenario is the optional wide generation path: one SampleSlice
// call fills a whole window of SliceRows consecutive dataset rows,
// letting the scenario drive a bitsliced many-lane kernel. The
// scenario derives each row's positional substream itself, but the
// determinism contract is that of SampleBatch: row j must consume
// exactly the outputs SampleBatch would consume from
// prng.NewStream(base, j), must produce exactly its bytes, and must be
// labelled class j%Classes(). The engine only calls SampleSlice on
// windows fully inside one worker shard; remainder rows take
// SampleBatch, so output stays byte-identical at every worker count.
type SliceScenario interface {
	Scenario
	// SliceRows returns the window width in rows. It must be even and
	// positive, and is assumed to be a multiple of Classes().
	SliceRows() int
	// SampleSlice fills rows firstRow … firstRow+SliceRows−1: packed
	// words into dst (SliceRows × words-per-row, row-major) and labels
	// into y (SliceRows entries), using rw as scratch generator state.
	SampleSlice(rw *prng.Rand, base uint64, firstRow int, dst []uint64, y []int)
}

// RelatedKeyScenario is the related-key axis of the paper's
// construction (keyed, t-class, related-key): every cipher class pairs
// its plaintext difference δ with a key difference ∇, and a class
// sample encrypts (P, P ⊕ δ) under the key pair (K, K ⊕ ∇) instead of
// a single key. An all-zero ∇ must degenerate to the ordinary keyed
// scenario bit for bit, so the related-key variant is a strict
// generalization.
//
// Related-key sampling draws more structure per row (a key, then a
// plaintext, in a fixed order), so implementations additionally declare
// their per-class generator layout via DrawWords, and
// testkit.CheckScenario audits the declaration: SampleBatch for a class
// must consume exactly DrawWords(class) 64-bit outputs. Row-positional
// substreams (prng.NewStream(base, row)) already make
// GenerateDataset/GenerateDatasetParallel byte-identical at any worker
// count whatever a row consumes; the declared layout pins that
// consumption down so a related-key path that silently draws
// differently from its specification cannot pass conformance.
type RelatedKeyScenario interface {
	Scenario
	// KeyDelta returns the key difference ∇ serialized in the cipher's
	// NewFromBytes layout. All-zero means single-key.
	KeyDelta() []byte
	// DrawWords returns the exact number of 64-bit generator outputs
	// one SampleBatch call consumes for the given cipher class
	// (0 ≤ class < Classes()).
	DrawWords(class int) int
}

// DatasetClassifier is the packed fast path of Classifier: it consumes
// a Dataset's backing store directly instead of a materialized
// [][]float64 view. Train, evalAccuracy and Distinguish prefer it when
// present; both paths must produce identical results (the NN adapter hands the
// packed rows to nn's packed entries, whose fitted weights and
// predictions are byte-identical to the float ones).
type DatasetClassifier interface {
	Classifier
	// FitDataset is Fit over the dataset's packed rows and labels.
	FitDataset(d *Dataset) error
	// PredictDataset is PredictBatch over the dataset's packed rows.
	PredictDataset(d *Dataset) []int
	// predictDatasetInto is PredictDataset writing into dst, which it
	// grows only when its capacity is short, and returning the filled
	// slice: Distinguish scores all its chunks into one buffer.
	predictDatasetInto(dst []int, d *Dataset) []int
}

// Classifier is the model slot of Algorithm 2. internal/nn networks
// (via NNClassifier) and internal/svm models satisfy it.
//
// PredictBatch classifies many samples at once; the online and
// evaluation loops always go through it, so implementations with a
// vectorized forward pass (the neural networks) amortize per-call
// overhead across the whole batch.
type Classifier interface {
	Name() string
	Fit(x [][]float64, y []int) error
	Predict(x []float64) int
	PredictBatch(x [][]float64) []int
}

// Oracle answers online-phase queries: given a class index, it returns
// the output-difference features the attacker would compute from its
// chosen-input queries.
type Oracle interface {
	// QueryBits writes one answer for the class into dst, packed in
	// SampleBatch's layout: for a scenario of n = FeatureLen()
	// features, dst has bits.PackedWords(n) words, every word is
	// overwritten and the bits past n are zero. Distinguish reads the
	// online phase through it.
	QueryBits(r *prng.Rand, class int, dst []uint64)
	// Query returns the same answer as {0,1} floats, consuming the
	// same draws.
	Query(r *prng.Rand, class int) []float64
}

// CipherOracle is the ORACLE = CIPHER case.
type CipherOracle struct{ S Scenario }

// QueryBits writes a true cipher sample for the class: SampleBatch.
func (o CipherOracle) QueryBits(r *prng.Rand, class int, dst []uint64) {
	o.S.SampleBatch(r, class, dst)
}

// Query returns a true cipher sample for the class.
func (o CipherOracle) Query(r *prng.Rand, class int) []float64 { return Sample(o.S, r, class) }

// RandomOracle is the ORACLE = RANDOM case.
type RandomOracle struct{ S Scenario }

// QueryBits ignores the class and writes a random difference: one
// generator output per word, with the bits past FeatureLen cleared.
func (o RandomOracle) QueryBits(r *prng.Rand, class int, dst []uint64) {
	for i := range dst {
		dst[i] = r.Uint64()
	}
	if tail := o.S.FeatureLen() % 64; tail != 0 {
		dst[len(dst)-1] &= 1<<uint(tail) - 1
	}
}

// Query ignores the class and returns a random difference.
func (o RandomOracle) Query(r *prng.Rand, class int) []float64 { return RandomSample(o.S, r) }
