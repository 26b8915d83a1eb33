package gift

import (
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func TestPerm64ClosedFormMatchesTable(t *testing.T) {
	for i := 0; i < 64; i++ {
		if perm64(i) != Perm64Table[i] {
			t.Fatalf("perm64(%d) = %d, table says %d", i, perm64(i), Perm64Table[i])
		}
	}
}

func TestPerm64IsPermutation(t *testing.T) {
	var seen [64]bool
	for _, p := range Perm64Table {
		if p < 0 || p > 63 || seen[p] {
			t.Fatalf("Perm64Table not a permutation: %v", Perm64Table)
		}
		seen[p] = true
	}
}

func TestPerm64KnownPrefix(t *testing.T) {
	// The first row of the published GIFT-64 permutation table.
	want := []int{0, 17, 34, 51, 48, 1, 18, 35, 32, 49, 2, 19, 16, 33, 50, 3}
	for i, w := range want {
		if Perm64Table[i] != w {
			t.Fatalf("Perm64Table[%d] = %d, want %d", i, Perm64Table[i], w)
		}
	}
}

func TestPermBits64Inverse(t *testing.T) {
	f := func(s uint64) bool {
		return permBits64(permBits64(s, false), true) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGift64EncryptDecryptRoundTrip(t *testing.T) {
	f := func(k0, k1, k2, k3, k4, k5, k6, k7 uint16, pt uint64) bool {
		c := NewCipher64([8]uint16{k7, k6, k5, k4, k3, k2, k1, k0})
		return c.Decrypt(c.Encrypt(pt)) == pt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGift64RoundReducedRoundTrip(t *testing.T) {
	r := prng.New(1)
	c := NewCipher64([8]uint16{
		r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
		r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
	})
	for n := 0; n <= Rounds64; n++ {
		pt := r.Uint64()
		if got := c.DecryptRounds(c.EncryptRounds(pt, n), n); got != pt {
			t.Fatalf("round trip failed at %d rounds", n)
		}
	}
}

func TestGift64KeyDependence(t *testing.T) {
	pt := uint64(0x0123456789abcdef)
	c1 := NewCipher64([8]uint16{})
	key := [8]uint16{}
	key[7] = 1
	c2 := NewCipher64(key)
	if c1.Encrypt(pt) != c1.Encrypt(pt) {
		t.Fatal("encryption not deterministic")
	}
	if c1.Encrypt(pt) == c2.Encrypt(pt) {
		t.Fatal("key change did not change ciphertext")
	}
}

func TestGift64FromBytes(t *testing.T) {
	key := make([]byte, 16)
	key[0] = 0x12
	key[1] = 0x34
	c1, err := NewCipher64FromBytes(key)
	if err != nil {
		t.Fatal(err)
	}
	var words [8]uint16
	words[0] = 0x1234
	c2 := NewCipher64(words)
	pt := uint64(42)
	if c1.Encrypt(pt) != c2.Encrypt(pt) {
		t.Fatal("byte and word key constructions disagree")
	}
	if _, err := NewCipher64FromBytes(make([]byte, 15)); err == nil {
		t.Fatal("15-byte key accepted")
	}
}

func TestGift64RoundConstants(t *testing.T) {
	// The first constants of the published LFSR sequence.
	want := []byte{0x01, 0x03, 0x07, 0x0F, 0x1F, 0x3E, 0x3D, 0x3B, 0x37, 0x2F, 0x1E, 0x3C}
	c := NewCipher64([8]uint16{})
	for i, w := range want {
		if c.RoundConstant(i) != w {
			t.Fatalf("round constant %d = %#02x, want %#02x", i, c.RoundConstant(i), w)
		}
	}
}

func TestGift64RoundCountValidation(t *testing.T) {
	c := NewCipher64([8]uint16{})
	for _, n := range []int{-1, 29} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("round count %d accepted", n)
				}
			}()
			c.EncryptRounds(0, n)
		}()
	}
}

func TestGift64Avalanche(t *testing.T) {
	// Full-round GIFT-64 should flip about half the output bits for a
	// single-bit input change.
	r := prng.New(2)
	c := NewCipher64([8]uint16{
		r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
		r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
	})
	total := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		pt := r.Uint64()
		d := c.Encrypt(pt) ^ c.Encrypt(pt^(1<<uint(r.Intn(64))))
		total += popcount64(d)
	}
	mean := float64(total) / trials
	if mean < 26 || mean > 38 {
		t.Fatalf("avalanche mean %.1f outside [26, 38]", mean)
	}
}

func TestGift64LowRoundBias(t *testing.T) {
	// 2-round GIFT-64 leaves a strongly non-uniform difference
	// distribution (one active S-box fans out to at most four) — the
	// property a distinguisher exploits.
	r := prng.New(3)
	c := NewCipher64([8]uint16{
		r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
		r.Uint16(), r.Uint16(), r.Uint16(), r.Uint16(),
	})
	distinct := map[uint64]bool{}
	const n = 4096
	for i := 0; i < n; i++ {
		pt := r.Uint64()
		distinct[c.EncryptRounds(pt, 2)^c.EncryptRounds(pt^0x2, 2)] = true
	}
	if len(distinct) > n/2 {
		t.Fatalf("2-round differences too uniform: %d distinct of %d", len(distinct), n)
	}
}

func popcount64(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

func BenchmarkGift64Encrypt(b *testing.B) {
	c := NewCipher64([8]uint16{1, 2, 3, 4, 5, 6, 7, 8})
	s := uint64(0x0123456789abcdef)
	for i := 0; i < b.N; i++ {
		s = c.Encrypt(s)
	}
	_ = s
}
