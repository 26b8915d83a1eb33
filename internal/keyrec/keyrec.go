// Package keyrec implements Gohr's neural-distinguisher-based
// last-round key recovery for round-reduced SPECK-32/64 (CRYPTO 2019),
// the attack the paper summarizes in Section 2.3 and leaves as future
// work for its own GIMLI distinguishers.
//
// The attack on (r+1)-round SPECK: collect ciphertext pairs whose
// plaintexts differ by the Gohr difference, guess the 16-bit last
// round key, peel the final round off both ciphertexts under the
// guess, and score the resulting r-round output difference with a
// trained real-vs-random neural distinguisher. The correct guess
// yields genuine r-round differences (high "real" probability); wrong
// guesses behave like one extra random round. Scores are combined
// across pairs by the log-likelihood ratio Σ log(p/(1−p)), exactly as
// in Gohr's work.
package keyrec

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/bits"
	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/speck"
)

// KeyScore is one subkey guess and its combined log-likelihood score.
type KeyScore struct {
	Key   uint16
	Score float64
}

// Config controls the attack.
type Config struct {
	// DistRounds is the round count the distinguisher was trained on;
	// the attacked cipher has DistRounds+1 rounds.
	DistRounds int
	// Pairs is the number of chosen-plaintext pairs to use.
	Pairs int
	// Delta is the plaintext difference (zero value selects
	// speck.GohrDelta).
	Delta speck.Block
	// Seed drives plaintext generation.
	Seed uint64
}

// Result reports the attack outcome.
type Result struct {
	Ranking  []KeyScore // all 2^16 guesses, best first
	TrueKey  uint16
	TrueRank int // 0 = recovered exactly
}

// RecoveredWithin reports whether the true key is among the top k
// guesses (a standard success notion: survivors of the ranking are
// verified by trial encryption).
func (r Result) RecoveredWithin(k int) bool { return r.TrueRank < k }

// LastRoundAttack attacks (cfg.DistRounds+1)-round SPECK keyed with c,
// scoring last-round-key guesses with the given real-vs-random
// distinguisher network (class 1 = real). The network must accept
// 32-bit difference features as produced by core.SpeckScenario.
func LastRoundAttack(c *speck.Cipher, dist *nn.Network, cfg Config) (*Result, error) {
	if cfg.DistRounds < 1 || cfg.DistRounds+1 > speck.Rounds {
		return nil, fmt.Errorf("keyrec: invalid distinguisher rounds %d", cfg.DistRounds)
	}
	if cfg.Pairs <= 0 {
		return nil, fmt.Errorf("keyrec: need at least one pair, got %d", cfg.Pairs)
	}
	if dist.InDim() != 32 || dist.Classes() != 2 {
		return nil, fmt.Errorf("keyrec: distinguisher has shape %d→%d, want 32→2", dist.InDim(), dist.Classes())
	}
	delta := cfg.Delta
	if delta == (speck.Block{}) {
		delta = speck.GohrDelta
	}

	// Chosen-plaintext phase: encrypt pairs over DistRounds+1 rounds.
	attackRounds := cfg.DistRounds + 1
	r := prng.New(cfg.Seed ^ 0x6b657972)
	c0 := make([]speck.Block, cfg.Pairs)
	c1 := make([]speck.Block, cfg.Pairs)
	for i := range c0 {
		p := speck.Block{X: r.Uint16(), Y: r.Uint16()}
		c0[i] = c.EncryptRounds(p, attackRounds)
		c1[i] = c.EncryptRounds(p.XOR(delta), attackRounds)
	}

	// Guess phase: parallel over the 2^16 last-round keys.
	scores := make([]float64, 1<<16)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (1 << 16) / workers
	if chunk == 0 {
		chunk = 1 << 16
	}
	for lo := 0; lo < 1<<16; lo += chunk {
		hi := lo + chunk
		if hi > 1<<16 {
			hi = 1 << 16
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			x := nn.NewMatrix(cfg.Pairs, 32)
			for g := lo; g < hi; g++ {
				key := uint16(g)
				for i := 0; i < cfg.Pairs; i++ {
					d0 := decryptOneRound(c0[i], key)
					d1 := decryptOneRound(c1[i], key)
					diff := d0.XOR(d1)
					row := x.Row(i)
					fillBits(row, diff)
				}
				probs := nn.Softmax(distForward(dist, x))
				s := 0.0
				for i := 0; i < cfg.Pairs; i++ {
					p := probs.At(i, 1)
					// Clamp to keep the LLR finite.
					if p < 1e-9 {
						p = 1e-9
					}
					if p > 1-1e-9 {
						p = 1 - 1e-9
					}
					s += math.Log(p / (1 - p))
				}
				scores[g] = s
			}
		}(lo, hi)
	}
	wg.Wait()

	res := &Result{TrueKey: c.RoundKey(attackRounds - 1)}
	res.Ranking = make([]KeyScore, 1<<16)
	for g := range scores {
		res.Ranking[g] = KeyScore{Key: uint16(g), Score: scores[g]}
	}
	sort.SliceStable(res.Ranking, func(a, b int) bool {
		return res.Ranking[a].Score > res.Ranking[b].Score
	})
	for rank, ks := range res.Ranking {
		if ks.Key == res.TrueKey {
			res.TrueRank = rank
			break
		}
	}
	return res, nil
}

// distForward runs the network in inference mode. The workers share one
// network: with train=false its dense and activation layers write no
// layer state, each call runs on a worker-local batch matrix, and the
// weights are only read (pinned under -race by internal/nn's
// TestConcurrentInference).
func distForward(dist *nn.Network, x *nn.Matrix) *nn.Matrix {
	return dist.Forward(x, false)
}

// decryptOneRound inverts one SPECK round under the guessed key.
func decryptOneRound(b speck.Block, k uint16) speck.Block {
	y := bits.RotR16(b.Y^b.X, 2)
	x := bits.RotL16((b.X^k)-y, 7)
	return speck.Block{X: x, Y: y}
}

// fillBits writes the 32 difference bits of d into row, LSB-first,
// matching core.SpeckScenario's feature encoding (X low byte, X high
// byte, Y low byte, Y high byte).
func fillBits(row []float64, d speck.Block) {
	for i := 0; i < 16; i++ {
		row[i] = float64(d.X >> i & 1)
		row[16+i] = float64(d.Y >> i & 1)
	}
}
