package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/prng"
)

// digestCase is one pinned training run on the sharded engine.
type digestCase struct {
	name                      string
	cols, classes             int
	hidden                    []int
	rows, batch, epochs, fits int
	packed                    bool
	opt                       func() Optimizer // nil: Fit's default (a fresh Adam per call)
}

// stepOnly hides every optimizer method but Name and Step, so the
// engine must treat it as an optimizer it knows nothing about.
type stepOnly struct{ o Optimizer }

func (s stepOnly) Name() string         { return s.o.Name() }
func (s stepOnly) Step(params []*Param) { s.o.Step(params) }

// digestCases cover the Table 2 MLP shape, a hidden width that is not
// a multiple of 4 with a 3-class head, every optimizer, float and
// packed input, and batches of 31 rows whose last batch holds 7 rows,
// so one of its eight shards is empty. The fits > 1 cases train the
// same network again and reuse its cached engine; a shared optimizer
// carries its moments across the calls.
var digestCases = []digestCase{
	{name: "mlp128/adam/fit", cols: 128, classes: 2, hidden: []int{128}, rows: 300, batch: 64, epochs: 2, fits: 1},
	{name: "mlp128/adam/bits", cols: 128, classes: 2, hidden: []int{128}, rows: 300, batch: 64, epochs: 2, fits: 1, packed: true},
	{name: "mlp128/step-only-adam/bits", cols: 128, classes: 2, hidden: []int{128}, rows: 300, batch: 64, epochs: 2, fits: 1, packed: true,
		opt: func() Optimizer { return stepOnly{NewAdam(0)} }},
	{name: "odd/adam/fit", cols: 70, classes: 3, hidden: []int{13, 6}, rows: 100, batch: 31, epochs: 3, fits: 1},
	{name: "odd/sgd/bits", cols: 70, classes: 3, hidden: []int{13, 6}, rows: 100, batch: 31, epochs: 3, fits: 1, packed: true,
		opt: func() Optimizer { return NewSGD(0.05, 0) }},
	{name: "odd/momentum/fit", cols: 70, classes: 3, hidden: []int{13, 6}, rows: 100, batch: 31, epochs: 3, fits: 1,
		opt: func() Optimizer { return NewSGD(0.05, 0.9) }},
	{name: "odd/momentum/bits/fit-twice", cols: 70, classes: 3, hidden: []int{13, 6}, rows: 100, batch: 31, epochs: 2, fits: 2, packed: true,
		opt: func() Optimizer { return NewSGD(0.05, 0.9) }},
	{name: "odd/adam/bits/fit-twice", cols: 70, classes: 3, hidden: []int{13, 6}, rows: 100, batch: 31, epochs: 2, fits: 2, packed: true,
		opt: func() Optimizer { return NewAdam(0.01) }},
	{name: "odd/default-adam/fit-twice", cols: 70, classes: 3, hidden: []int{13, 6}, rows: 100, batch: 31, epochs: 2, fits: 2},
}

// trainedDigests pins, per GOARCH, the SHA-256 of each case's History,
// trained weights and final gradients. The tables differ because
// math.Exp has an assembly body on amd64 and not on 386, so softmax
// rounds differently. Float and packed input, and an optimizer the
// engine only knows by Step, train the same bytes.
var trainedDigests = map[string]map[string]string{
	"amd64": {
		"mlp128/adam/fit":             "1d12e905001c682f947ae3822549c58f886447df7d687fd4473f93a1965b1be9",
		"mlp128/adam/bits":            "1d12e905001c682f947ae3822549c58f886447df7d687fd4473f93a1965b1be9",
		"mlp128/step-only-adam/bits":  "1d12e905001c682f947ae3822549c58f886447df7d687fd4473f93a1965b1be9",
		"odd/adam/fit":                "7a6a54da1f24583932fd7d99285b02cdafb22544d195a111daab76a57be944af",
		"odd/sgd/bits":                "c030aa16d1bb44bedd6b9fd3c5614afc9b29ba2fd5d63645c2aabbc4cb5062a1",
		"odd/momentum/fit":            "c7414e46064aa92d193e08dffd7c5f3e83a1ad6257c067043a26fd2fa00e0420",
		"odd/momentum/bits/fit-twice": "b1bf18f78d16eec8a243caf5cbad5bc23ece25ffeb9995df96e93a72f9241176",
		"odd/adam/bits/fit-twice":     "1c4016c134d0fcf42eba5dba7cde81af604060a10edaff27ddaffc94ed7a3c93",
		"odd/default-adam/fit-twice":  "0ab845fb62b797602e29ebbff1b2744c50e354fed225759c299925e7df251f79",
	},
	"386": {
		"mlp128/adam/fit":             "d6882a83d689f4608eb35f1a68b7e9dfc971aea349c39bb56c1555854b5a85d2",
		"mlp128/adam/bits":            "d6882a83d689f4608eb35f1a68b7e9dfc971aea349c39bb56c1555854b5a85d2",
		"mlp128/step-only-adam/bits":  "d6882a83d689f4608eb35f1a68b7e9dfc971aea349c39bb56c1555854b5a85d2",
		"odd/adam/fit":                "98dda84811469ca3cc52506750677c76206a3dc661666d5d60a02f4fb811b2d0",
		"odd/sgd/bits":                "33accdeaa610d69d83c53228096778bd9fc1a7bfc6eb95154eaf999c30114f7c",
		"odd/momentum/fit":            "ca86281409918b02e00f74d53b6771e3a1967b290e7e4fb564f4a917308cd40e",
		"odd/momentum/bits/fit-twice": "298ced289792287210fd58176f560705c77cafb8f7764729565078d28fb47a0d",
		"odd/adam/bits/fit-twice":     "8620751e704ad1b5dc197f9fdcefa13515ab03876dd680dbbe68208e714476c3",
		"odd/default-adam/fit-twice":  "9552384bf2e43cb55dea1084998489c9260f475e0b9550ec488709f730231124",
	},
}

// run trains the case's network with the given worker count and
// returns the hex SHA-256 of every History entry, then every
// parameter's weights and final Grad, as little-endian float64 bits.
func (c digestCase) run(t *testing.T, workers int) string {
	t.Helper()
	r := prng.New(uint64(c.cols*1000 + c.rows))
	x, xb := randBits(r, c.rows, c.cols, c.cols%64 != 0)
	y := make([]int, c.rows)
	for i := range y {
		y[i] = int(x.At(i, 0)+x.At(i, 1)+x.At(i, c.cols-1)) % c.classes
	}
	net, err := MLP(c.cols, c.hidden, c.classes, ReLU, prng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := FitConfig{Epochs: c.epochs, BatchSize: c.batch, Seed: 17, Workers: workers}
	if c.opt != nil {
		cfg.Optimizer = c.opt()
	}
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for f := 0; f < c.fits; f++ {
		var hist *History
		if c.packed {
			hist, err = net.FitBits(xb, y, cfg)
		} else {
			hist, err = net.Fit(x, y, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		for e := range hist.Loss {
			put(hist.Loss[e])
			put(hist.Acc[e])
		}
	}
	if net.fit == nil {
		t.Fatalf("%s did not train on the sharded engine", c.name)
	}
	for _, p := range net.Params() {
		for _, v := range p.W {
			put(v)
		}
		for _, v := range p.Grad {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainedWeightDigests pins what the sharded engine trains, bit
// for bit, at workers 1, 4 and 7 with the AVX2 kernels on and forced
// off. Every other training test compares two runs of the current
// code; this one compares against recorded bytes, so a change that
// moves both runs the same way (a shard slot left unzeroed, a merge
// in another order, a reordered optimizer expression) still fails.
func TestTrainedWeightDigests(t *testing.T) {
	want, ok := trainedDigests[runtime.GOARCH]
	if !ok {
		t.Skipf("no digests recorded for GOARCH=%s", runtime.GOARCH)
	}
	for _, c := range digestCases {
		t.Run(c.name, func(t *testing.T) {
			for _, scalar := range []bool{false, true} {
				for _, workers := range []int{1, 4, 7} {
					var got string
					run := func() { got = c.run(t, workers) }
					if scalar {
						forceScalarMul(run)
					} else {
						run()
					}
					if got != want[c.name] {
						t.Errorf("workers=%d scalar=%v: digest %s, pinned %s", workers, scalar, got, want[c.name])
					}
				}
			}
		})
	}
}
