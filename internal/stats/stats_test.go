package stats

import (
	"math"
	"testing"

	"repro/internal/prng"
)

func TestExpectedRandomAccuracyPaperValues(t *testing.T) {
	// Section 3.1: t=2 → 0.5, t=32 → 0.03125.
	cases := []struct {
		t    int
		want float64
	}{
		{2, 0.5},
		{32, 0.03125},
		{4, 0.25},
		{10, 0.1},
	}
	for _, c := range cases {
		got, err := ExpectedRandomAccuracy(c.t)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("ExpectedRandomAccuracy(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestExpectedRandomAccuracyClosedForm(t *testing.T) {
	// The paper's summation must agree with the closed form 1/t.
	for tt := 2; tt <= 64; tt++ {
		got, err := ExpectedRandomAccuracy(tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-1/float64(tt)) > 1e-9 {
			t.Errorf("t=%d: %v != 1/t", tt, got)
		}
	}
}

func TestExpectedRandomAccuracyMonteCarlo(t *testing.T) {
	// Monte-Carlo cross-check: classify t random items uniformly.
	r := prng.New(1)
	const tt = 8
	const trials = 40000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Intn(tt) == r.Intn(tt) {
			hits++
		}
	}
	mc := float64(hits) / trials
	exact, _ := ExpectedRandomAccuracy(tt)
	if math.Abs(mc-exact) > 0.01 {
		t.Errorf("Monte-Carlo %v vs exact %v", mc, exact)
	}
}

func TestExpectedRandomAccuracyValidation(t *testing.T) {
	if _, err := ExpectedRandomAccuracy(0); err == nil {
		t.Error("t=0 accepted")
	}
	if got, err := ExpectedRandomAccuracy(1); err != nil || got != 1 {
		t.Errorf("t=1 should be trivially 1, got %v, %v", got, err)
	}
}

func TestAccuracy(t *testing.T) {
	if a := Accuracy([]int{1, 2, 3}, []int{1, 0, 3}); math.Abs(a-2.0/3) > 1e-15 {
		t.Errorf("Accuracy = %v", a)
	}
	if a := Accuracy(nil, nil); a != 0 {
		t.Errorf("empty Accuracy = %v", a)
	}
}

func TestAccuracyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	Accuracy([]int{1}, []int{1, 2})
}

func TestConfusionMatrix(t *testing.T) {
	m := ConfusionMatrix([]int{0, 1, 1, 0}, []int{0, 1, 0, 1}, 2)
	if m[0][0] != 1 || m[1][1] != 1 || m[0][1] != 1 || m[1][0] != 1 {
		t.Errorf("confusion matrix = %v", m)
	}
}

func TestZScoreAndCDF(t *testing.T) {
	// 60% observed over 100 trials vs 50% null: z = 2.
	z := ZScore(0.6, 0.5, 100)
	if math.Abs(z-2) > 1e-12 {
		t.Errorf("ZScore = %v, want 2", z)
	}
	if math.Abs(NormalCDF(0)-0.5) > 1e-12 {
		t.Errorf("NormalCDF(0) = %v", NormalCDF(0))
	}
	if p := NormalCDF(3); p < 0.998 {
		t.Errorf("NormalCDF(3) = %v", p)
	}
}

func TestWilsonIntervalContainsTruth(t *testing.T) {
	lo, hi := WilsonInterval(0.5, 1000, 1.96)
	if lo > 0.5 || hi < 0.5 {
		t.Errorf("Wilson interval [%v,%v] excludes the point estimate", lo, hi)
	}
	if hi-lo > 0.07 {
		t.Errorf("Wilson interval [%v,%v] too wide for n=1000", lo, hi)
	}
	lo, hi = WilsonInterval(0.5, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("degenerate Wilson interval = [%v,%v]", lo, hi)
	}
}

func TestDecideCipher(t *testing.T) {
	// Training accuracy 0.95 at t=2; online 0.94 over 1000: CIPHER.
	v, err := Decide(0.95, 2, 0.94, 1000, 3)
	if err != nil || v != VerdictCipher {
		t.Fatalf("Decide = %v, %v; want CIPHER", v, err)
	}
}

func TestDecideRandom(t *testing.T) {
	v, err := Decide(0.95, 2, 0.502, 1000, 3)
	if err != nil || v != VerdictRandom {
		t.Fatalf("Decide = %v, %v; want RANDOM", v, err)
	}
}

func TestDecideInconclusiveNearMidpoint(t *testing.T) {
	v, err := Decide(0.6, 2, 0.55, 100, 3)
	if err != nil || v != VerdictInconclusive {
		t.Fatalf("Decide = %v, %v; want INCONCLUSIVE near the midpoint", v, err)
	}
}

func TestDecideAbortsWhenTrainingFailed(t *testing.T) {
	// Algorithm 2 aborts when a ≤ 1/t.
	if _, err := Decide(0.5, 2, 0.9, 1000, 3); err == nil {
		t.Fatal("training accuracy at 1/t not rejected")
	}
	if _, err := Decide(0.9, 1, 0.9, 1000, 3); err == nil {
		t.Fatal("t=1 not rejected")
	}
	if _, err := Decide(0.9, 2, 0.9, 0, 3); err == nil {
		t.Fatal("n=0 not rejected")
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictCipher.String() != "CIPHER" ||
		VerdictRandom.String() != "RANDOM" ||
		VerdictInconclusive.String() != "INCONCLUSIVE" {
		t.Fatal("verdict strings wrong")
	}
}

func TestOnlineQueriesFor(t *testing.T) {
	// Strong distinguisher (0.95 vs 0.5) needs few queries; a weak one
	// (0.51 vs 0.5) needs many. The paper's 8-round accuracies (~0.52)
	// against 2^14.3 ≈ 20k online data are consistent with this.
	few, err := OnlineQueriesFor(0.95, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	many, err := OnlineQueriesFor(0.51, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if few >= many {
		t.Fatalf("query counts not ordered: strong=%d weak=%d", few, many)
	}
	if many < 5000 {
		t.Fatalf("weak distinguisher query count %d implausibly small", many)
	}
	// The paper's 8-round GIMLI-HASH accuracy 0.5219 should need on the
	// order of 2^14.3 ≈ 20k queries at 3 sigma — same order of magnitude.
	n, err := OnlineQueriesFor(0.5219, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2000 || n > 100000 {
		t.Fatalf("0.5219-accuracy query estimate %d not in the paper's 2^14.3 ballpark", n)
	}
	// Rows that must return an error, never a count: an accuracy at or
	// below 1/t, counts that are not finite or overflow an int (just
	// above 1/t the count is ~1.6e19, which int conversion turned into
	// math.MinInt64 with a nil error), and the negative count of an
	// accuracy above 1.
	for _, c := range []struct {
		a      float64
		t      int
		sigmas float64
	}{
		{0.4, 2, 3},
		{0.5, 2, 3},
		{0.5 + 1e-9, 2, 4},
		{1.0/3 + 1e-10, 3, 4},
		{math.NaN(), 2, 4},
		{0.9, 2, math.Inf(1)},
		{0.9, 2, math.NaN()},
		{0.9, 1, 3},
		{2, 2, 4},
	} {
		if n, err := OnlineQueriesFor(c.a, c.t, c.sigmas); err == nil {
			t.Errorf("OnlineQueriesFor(%v, %d, %v) = %d with nil error", c.a, c.t, c.sigmas, n)
		}
	}
	// A large count that fits an int, even a 32-bit one, is still
	// returned: 0.25·(8/1e-4)² = 1.6e9.
	if n, err := OnlineQueriesFor(0.5+1e-4, 2, 4); err != nil || n < 1599000000 || n > 1601000000 {
		t.Errorf("OnlineQueriesFor(0.5+1e-4, 2, 4) = %d, %v; want about 1.6e9", n, err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); m != 2.5 {
		t.Errorf("Mean = %v", m)
	}
	if s := StdDev(xs); math.Abs(s-math.Sqrt(5.0/3)) > 1e-12 {
		t.Errorf("StdDev = %v", s)
	}
	if Mean(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate Mean/StdDev wrong")
	}
}

func TestDecisionEndToEndMonteCarlo(t *testing.T) {
	// Simulate the online game many times: with a true cipher accuracy
	// of 0.75 and 500 queries, the verdict must be CIPHER essentially
	// always; with true accuracy 0.5 (random), RANDOM.
	r := prng.New(2)
	simulate := func(trueP float64) Verdict {
		hits := 0
		const n = 500
		for i := 0; i < n; i++ {
			if r.Float64() < trueP {
				hits++
			}
		}
		v, err := Decide(0.75, 2, float64(hits)/n, n, 3)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i := 0; i < 50; i++ {
		if v := simulate(0.75); v != VerdictCipher {
			t.Fatalf("cipher simulation %d gave %v", i, v)
		}
		if v := simulate(0.5); v != VerdictRandom {
			t.Fatalf("random simulation %d gave %v", i, v)
		}
	}
}
