package simon

import (
	"bytes"
	"testing"
)

// TestOfficialVector pins the ePrint 2013/404 SIMON-32/64 test vector.
func TestOfficialVector(t *testing.T) {
	c, err := NewFromBytes([]byte{0x19, 0x18, 0x11, 0x10, 0x09, 0x08, 0x01, 0x00})
	if err != nil {
		t.Fatal(err)
	}
	got := c.Encrypt(Block{X: 0x6565, Y: 0x6877})
	want := Block{X: 0xc69b, Y: 0xe9bb}
	if got != want {
		t.Fatalf("Encrypt = %04x %04x, want %04x %04x", got.X, got.Y, want.X, want.Y)
	}
	if dec := c.Decrypt(got); dec != (Block{X: 0x6565, Y: 0x6877}) {
		t.Fatalf("Decrypt = %04x %04x", dec.X, dec.Y)
	}
}

func TestNewFromBytesErrors(t *testing.T) {
	if _, err := NewFromBytes(make([]byte, 7)); err == nil {
		t.Fatal("short key accepted")
	}
	if _, err := NewFromBytes(make([]byte, 9)); err == nil {
		t.Fatal("long key accepted")
	}
}

func TestBlockBytesRoundTrip(t *testing.T) {
	b := Block{X: 0x1234, Y: 0xabcd}
	if got := BlockFromBytes(b.Bytes()); got != b {
		t.Fatalf("round trip gave %+v", got)
	}
	if !bytes.Equal(b.Bytes(), []byte{0x34, 0x12, 0xcd, 0xab}) {
		t.Fatalf("Bytes layout %x", b.Bytes())
	}
}

func TestKeyHelpers(t *testing.T) {
	k := Key{1, 2, 3, 4}
	if !k.XOR(k).IsZero() {
		t.Fatal("k XOR k not zero")
	}
	if k.IsZero() {
		t.Fatal("nonzero key reported zero")
	}
	if got := k.XOR(Key{0, 0, 0, 0x0040}); got != (Key{1, 2, 3, 0x44}) {
		t.Fatalf("XOR gave %v", got)
	}
}

func TestRoundCountPanics(t *testing.T) {
	c := New(Key{})
	for _, n := range []int{-1, Rounds + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EncryptRounds(%d) did not panic", n)
				}
			}()
			c.EncryptRounds(Block{}, n)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DecryptRounds(%d) did not panic", n)
				}
			}()
			c.DecryptRounds(Block{}, n)
		}()
	}
}

// TestRelatedKeyCancellation checks the differential structure that
// motivates LuKeyDelta: encrypting (P, P ⊕ NDDelta) under (K, K ⊕ ∇)
// keeps the state difference at zero through round 4 (rk[1..3] are
// unaffected by a k0 difference) and re-injects it at round 5.
func TestRelatedKeyCancellation(t *testing.T) {
	k := Key{0x1918, 0x1110, 0x0908, 0x0100}
	ca, cb := New(k), New(k.XOR(LuKeyDelta))
	p := Block{X: 0x6565, Y: 0x6877}
	for n := 1; n <= 4; n++ {
		a, b := ca.EncryptRounds(p, n), cb.EncryptRounds(p.XOR(NDDelta), n)
		if a.XOR(b) != (Block{}) {
			t.Fatalf("round %d: difference %04x %04x, want zero", n, a.X^b.X, a.Y^b.Y)
		}
	}
	a, b := ca.EncryptRounds(p, 5), cb.EncryptRounds(p.XOR(NDDelta), 5)
	if a.XOR(b) == (Block{}) {
		t.Fatal("round 5: difference still zero; key schedule did not re-inject ∇")
	}
}
