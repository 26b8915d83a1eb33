package keyrec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/speck"
)

// trainDist trains a real-vs-random distinguisher for r-round SPECK.
func trainDist(t testing.TB, rounds, hidden, perClass int, seed uint64) *nn.Network {
	t.Helper()
	s, err := core.NewSpeckScenario(rounds)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := core.NewMLPClassifier(s.FeatureLen(), 2, hidden, seed)
	if err != nil {
		t.Fatal(err)
	}
	clf.Epochs = 5
	d, err := core.Train(s, clf, core.TrainConfig{TrainPerClass: perClass, ValPerClass: 1024, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d-round distinguisher accuracy: %.4f", rounds, d.Accuracy)
	return clf.Net
}

func TestDecryptOneRoundInvertsEncryption(t *testing.T) {
	r := prng.New(1)
	c := speck.New([4]uint16{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()})
	for i := 0; i < 100; i++ {
		p := speck.Block{X: r.Uint16(), Y: r.Uint16()}
		for n := 1; n <= 5; n++ {
			full := c.EncryptRounds(p, n)
			peeled := decryptOneRound(full, c.RoundKey(n-1))
			if peeled != c.EncryptRounds(p, n-1) {
				t.Fatalf("peeling round %d failed", n)
			}
		}
	}
}

func TestFillBitsMatchesScenarioEncoding(t *testing.T) {
	s, _ := core.NewSpeckScenario(3)
	// Reproduce one real sample and re-encode its difference manually.
	r1 := prng.New(9)
	want := core.Sample(s, r1, 1)

	r2 := prng.New(9)
	c := speck.New([4]uint16{r2.Uint16(), r2.Uint16(), r2.Uint16(), r2.Uint16()})
	p := speck.Block{X: r2.Uint16(), Y: r2.Uint16()}
	d := c.EncryptRounds(p, 3).XOR(c.EncryptRounds(p.XOR(speck.GohrDelta), 3))
	row := make([]float64, 32)
	fillBits(row, d)
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("bit %d: fillBits %v, scenario %v", i, row[i], want[i])
		}
	}
}

func TestAttackValidation(t *testing.T) {
	r := prng.New(2)
	c := speck.New([4]uint16{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()})
	net, _ := nn.MLP(32, []int{8}, 2, nn.ReLU, prng.New(1))
	if _, err := LastRoundAttack(c, net, Config{DistRounds: 0, Pairs: 8}); err == nil {
		t.Error("0 distinguisher rounds accepted")
	}
	if _, err := LastRoundAttack(c, net, Config{DistRounds: 22, Pairs: 8}); err == nil {
		t.Error("out-of-range rounds accepted")
	}
	if _, err := LastRoundAttack(c, net, Config{DistRounds: 5, Pairs: 0}); err == nil {
		t.Error("0 pairs accepted")
	}
	bad, _ := nn.MLP(16, []int{8}, 2, nn.ReLU, prng.New(1))
	if _, err := LastRoundAttack(c, bad, Config{DistRounds: 5, Pairs: 8}); err == nil {
		t.Error("wrong-width distinguisher accepted")
	}
}

// TestKeyRecovery6Rounds is the Gohr-style headline: recover the
// 6th-round subkey of 6-round SPECK-32/64 using a 5-round neural
// distinguisher. "Recover" means the true key ranks in the top 32 of
// 65536 (survivors are then checked by trial decryption); with a good
// distinguisher and enough pairs it typically ranks first.
func TestKeyRecovery6Rounds(t *testing.T) {
	if testing.Short() {
		t.Skip("key recovery is expensive; skipped in -short mode")
	}
	net := trainDist(t, 5, 64, 8192, 33)
	r := prng.New(4)
	c := speck.New([4]uint16{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()})
	res, err := LastRoundAttack(c, net, Config{DistRounds: 5, Pairs: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("true key %04x ranked %d (best guess %04x, score %.2f)",
		res.TrueKey, res.TrueRank, res.Ranking[0].Key, res.Ranking[0].Score)
	if !res.RecoveredWithin(32) {
		t.Fatalf("true key ranked %d of 65536", res.TrueRank)
	}
}

// TestAttackIsKeyDependent: attacking two different ciphers must give
// different top keys (i.e. the ranking reflects the key, not an
// artifact).
func TestAttackIsKeyDependent(t *testing.T) {
	if testing.Short() {
		t.Skip("key recovery is expensive; skipped in -short mode")
	}
	net := trainDist(t, 4, 32, 4096, 44)
	r := prng.New(6)
	ranks := make([]int, 0, 2)
	for trial := 0; trial < 2; trial++ {
		c := speck.New([4]uint16{r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16()})
		res, err := LastRoundAttack(c, net, Config{DistRounds: 4, Pairs: 32, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ranks = append(ranks, res.TrueRank)
	}
	for i, rank := range ranks {
		if rank > 64 {
			t.Fatalf("trial %d: true key ranked %d", i, rank)
		}
	}
}
