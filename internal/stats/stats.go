// Package stats implements the statistical side of the distinguisher:
// the expected accuracy of classifying random data (Section 3.1 of the
// paper), confidence intervals, and the significance test behind the
// CIPHER-vs-RANDOM decision in Algorithm 2.
package stats

import (
	"fmt"
	"math"
)

// ExpectedRandomAccuracy computes the expected classification accuracy
// on random data for t classes, exactly as derived in Section 3.1:
// with Pr(i) = C(t,i)·(t−1)^(t−i) / t^t right classifications out of t,
// the expectation E = Σ i·Pr(i), and the accuracy is E/t. (The closed
// form is 1/t — classifying t uniformly random items among t classes —
// which the unit tests confirm; we keep the paper's summation to mirror
// its presentation.)
func ExpectedRandomAccuracy(t int) (float64, error) {
	if t < 1 {
		return 0, fmt.Errorf("stats: need at least 1 class, got %d", t)
	}
	// Work in log space: Pr(i) = exp(logC(t,i) + (t−i)·log(t−1) − t·log t).
	logT := math.Log(float64(t))
	var e float64
	for i := 0; i <= t; i++ {
		var logP float64
		if t == 1 {
			// Degenerate single-class case: always right.
			if i == 1 {
				logP = 0
			} else {
				continue
			}
		} else {
			logP = logChoose(t, i) + float64(t-i)*math.Log(float64(t-1)) - float64(t)*logT
		}
		e += float64(i) * math.Exp(logP)
	}
	return e / float64(t), nil
}

// logChoose returns log C(n, k).
func logChoose(n, k int) float64 {
	return logFactorial(n) - logFactorial(k) - logFactorial(n-k)
}

// logFactorial returns log n! via the log-gamma function.
func logFactorial(n int) float64 {
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}

// Accuracy returns the fraction of positions where pred equals label.
// It panics if the slices differ in length and returns 0 for empty
// input.
func Accuracy(pred, label []int) float64 {
	if len(pred) != len(label) {
		panic("stats: Accuracy length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	hit := 0
	for i := range pred {
		if pred[i] == label[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(pred))
}

// ConfusionMatrix tabulates predictions against labels for t classes:
// m[label][pred].
func ConfusionMatrix(pred, label []int, t int) [][]int {
	m := make([][]int, t)
	for i := range m {
		m[i] = make([]int, t)
	}
	for i := range pred {
		if label[i] >= 0 && label[i] < t && pred[i] >= 0 && pred[i] < t {
			m[label[i]][pred[i]]++
		}
	}
	return m
}

// BinomialSigma returns the standard deviation of an empirical accuracy
// estimated from n Bernoulli(p) trials.
func BinomialSigma(p float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(p * (1 - p) / float64(n))
}

// ZScore returns how many null-hypothesis standard deviations the
// observed accuracy lies above p0, for n trials.
func ZScore(observed, p0 float64, n int) float64 {
	sigma := BinomialSigma(p0, n)
	if sigma == 0 {
		if observed == p0 {
			return 0
		}
		return math.Inf(1)
	}
	return (observed - p0) / sigma
}

// NormalCDF is the standard normal cumulative distribution function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// WilsonInterval returns the Wilson score interval for an empirical
// proportion p̂ over n trials at z standard deviations (z = 1.96 for
// 95%).
func WilsonInterval(pHat float64, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (pHat + z*z/(2*nf)) / denom
	half := z * math.Sqrt(pHat*(1-pHat)/nf+z*z/(4*nf*nf)) / denom
	return center - half, center + half
}

// Verdict is the outcome of the online phase of Algorithm 2.
type Verdict int

// The three possible outcomes of the oracle game.
const (
	VerdictInconclusive Verdict = iota
	VerdictCipher
	VerdictRandom
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictCipher:
		return "CIPHER"
	case VerdictRandom:
		return "RANDOM"
	default:
		return "INCONCLUSIVE"
	}
}

// Decide implements the decision rule of Algorithm 2's online phase:
// given the offline training accuracy a, the number of classes t, the
// online accuracy aPrime over n predictions, and a significance level
// in sigmas, it decides whether the oracle is the cipher (a′ ≈ a), a
// random oracle (a′ ≈ 1/t), or neither hypothesis is favored.
//
// The rule is a midpoint threshold with significance guards: the
// training accuracy must itself exceed 1/t (otherwise the procedure is
// aborted per the paper), and the online accuracy must be significantly
// on one side of the midpoint between 1/t and a.
func Decide(a float64, t int, aPrime float64, n int, sigmas float64) (Verdict, error) {
	if t < 2 {
		return VerdictInconclusive, fmt.Errorf("stats: need t ≥ 2 classes, got %d", t)
	}
	if n <= 0 {
		return VerdictInconclusive, fmt.Errorf("stats: need online predictions, got n=%d", n)
	}
	base := 1 / float64(t)
	if a <= base {
		// Step "Abort" of Algorithm 2: training learned nothing.
		return VerdictInconclusive, fmt.Errorf("stats: training accuracy %.4f not above 1/t = %.4f", a, base)
	}
	mid := (a + base) / 2
	// Significance: distance from the midpoint in null sigmas.
	sigma := BinomialSigma(mid, n)
	switch {
	case aPrime >= mid+sigmas*sigma:
		return VerdictCipher, nil
	case aPrime <= mid-sigmas*sigma:
		return VerdictRandom, nil
	default:
		return VerdictInconclusive, nil
	}
}

// OnlineQueriesFor returns an estimate of the number of online
// predictions needed to separate accuracy a from 1/t at the given
// number of sigmas: the gap must exceed 2·sigmas·σ(mid). It returns an
// error when t < 2, when a does not exceed 1/t, or when the count is
// not finite or not a positive int.
func OnlineQueriesFor(a float64, t int, sigmas float64) (int, error) {
	if t < 2 {
		return 0, fmt.Errorf("stats: need t ≥ 2 classes, got %d", t)
	}
	base := 1 / float64(t)
	gap := a - base
	if gap <= 0 {
		return 0, fmt.Errorf("stats: accuracy %.4f does not exceed 1/t", a)
	}
	mid := (a + base) / 2
	// Solve gap/2 ≥ sigmas·sqrt(mid(1−mid)/n)  for n.
	n := math.Ceil(mid * (1 - mid) * (2 * sigmas / gap) * (2 * sigmas / gap))
	// Within about 1e-9 of 1/t the count no longer fits in an int, and
	// converting it (or a NaN count) would yield a garbage query number;
	// an accuracy above 1 gives a count below 1.
	if !(n >= 1 && n < float64(math.MaxInt)) {
		return 0, fmt.Errorf("stats: accuracy %v at %v sigmas needs %g online queries, not a positive int", a, sigmas, n)
	}
	return int(n), nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 for fewer than
// two values).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}
