// Package bias profiles per-bit biases of output-difference
// distributions — the first-order signal the paper's classifiers
// learn. For each observed difference bit it estimates
// Pr[bit = 1 | class] and derives the per-bit distinguishing power,
// making visible *where* in the state the round-reduced structure
// leaks (and how the leak dies as rounds are added).
package bias

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/prng"
)

// Profile is the per-bit bias profile of one scenario.
type Profile struct {
	Scenario string
	Samples  int // per class
	Classes  int
	// P[class][bit] = empirical Pr[bit = 1 | class].
	P [][]float64
}

// Measure samples the scenario's classes and estimates every bit's
// one-probability per class.
func Measure(s core.Scenario, perClass int, r *prng.Rand) (*Profile, error) {
	if perClass <= 0 {
		return nil, fmt.Errorf("bias: perClass must be positive, got %d", perClass)
	}
	t := s.Classes()
	p := &Profile{
		Scenario: s.Name(),
		Samples:  perClass,
		Classes:  t,
		P:        make([][]float64, t),
	}
	dim := s.FeatureLen()
	for c := 0; c < t; c++ {
		p.P[c] = make([]float64, dim)
		for i := 0; i < perClass; i++ {
			for j, v := range core.Sample(s, r, c) {
				if v >= 0.5 {
					p.P[c][j]++
				}
			}
		}
		for j := range p.P[c] {
			p.P[c][j] /= float64(perClass)
		}
	}
	return p, nil
}

// MaxClassGap returns, for each bit, the largest |P[a][bit] − P[b][bit]|
// over class pairs — the per-bit separability signal.
func (p *Profile) MaxClassGap() []float64 {
	dim := len(p.P[0])
	out := make([]float64, dim)
	for j := 0; j < dim; j++ {
		for a := 0; a < p.Classes; a++ {
			for b := a + 1; b < p.Classes; b++ {
				gap := math.Abs(p.P[a][j] - p.P[b][j])
				if gap > out[j] {
					out[j] = gap
				}
			}
		}
	}
	return out
}

// UniformDeviation returns, for each bit, the largest |P[c][bit] − 1/2|
// over classes — how far any class's bit is from random.
func (p *Profile) UniformDeviation() []float64 {
	dim := len(p.P[0])
	out := make([]float64, dim)
	for j := 0; j < dim; j++ {
		for c := 0; c < p.Classes; c++ {
			d := math.Abs(p.P[c][j] - 0.5)
			if d > out[j] {
				out[j] = d
			}
		}
	}
	return out
}

// TopBits returns the n bit indices with the largest class gap, best
// first (ties toward lower index).
func (p *Profile) TopBits(n int) []int {
	gaps := p.MaxClassGap()
	idx := make([]int, len(gaps))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return gaps[idx[a]] > gaps[idx[b]] })
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}

// NaiveAccuracyBound estimates the accuracy of the best single-bit
// two-class distinguisher: 1/2 + maxGap/2. A neural network must do at
// least this well; how far it exceeds the bound measures how much
// cross-bit structure it exploits.
func (p *Profile) NaiveAccuracyBound() float64 {
	best := 0.0
	for _, g := range p.MaxClassGap() {
		if g > best {
			best = g
		}
	}
	return 0.5 + best/2
}

// Heat renders an ASCII heat strip of the class-gap profile, one
// character per `stride` bits (max over the group): ' ' ≈ 0 up to '█'
// for gap ≥ 0.5.
func (p *Profile) Heat(stride int) string {
	if stride <= 0 {
		stride = 1
	}
	gaps := p.MaxClassGap()
	shades := []rune(" ░▒▓█")
	var sb strings.Builder
	for start := 0; start < len(gaps); start += stride {
		end := start + stride
		if end > len(gaps) {
			end = len(gaps)
		}
		max := 0.0
		for _, g := range gaps[start:end] {
			if g > max {
				max = g
			}
		}
		lvl := int(max / 0.125)
		if lvl >= len(shades) {
			lvl = len(shades) - 1
		}
		sb.WriteRune(shades[lvl])
	}
	return sb.String()
}
