package chaskey

import (
	"bytes"
	"testing"
)

// refKey is the key of the Chaskey reference implementation's test
// vectors (chaskey.c by Mouha), serialized little-endian.
var refKey = State{0x833d3433, 0x009f389f, 0x2398e64f, 0x417acf39}

// TestOfficialMACVector pins the reference implementation's
// empty-message vector: the first row of its 64-vector table.
func TestOfficialMACVector(t *testing.T) {
	want := State{0x792e8fe5, 0x75ce87aa, 0x2d1450b5, 0x1191970b}
	got := MAC(refKey.Bytes(), nil, Rounds)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("MAC(empty) = %x, want %x", got, want.Bytes())
	}
}

// TestMACBlockBoundaries exercises the three absorption paths (partial,
// exactly one full block, full block + partial) and checks tags are
// distinct and deterministic.
func TestMACBlockBoundaries(t *testing.T) {
	msg := make([]byte, 40)
	for i := range msg {
		msg[i] = byte(i)
	}
	seen := map[string]int{}
	for _, n := range []int{0, 1, 15, 16, 17, 32, 40} {
		tag := MAC(refKey.Bytes(), msg[:n], Rounds)
		if len(tag) != StateBytes {
			t.Fatalf("len %d: tag length %d", n, len(tag))
		}
		again := MAC(refKey.Bytes(), msg[:n], Rounds)
		if !bytes.Equal(tag, again) {
			t.Fatalf("len %d: MAC not deterministic", n)
		}
		if prev, dup := seen[string(tag)]; dup {
			t.Fatalf("lengths %d and %d collide", prev, n)
		}
		seen[string(tag)] = n
	}
}

func TestMACBadKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short key did not panic")
		}
	}()
	MAC(make([]byte, 15), nil, Rounds)
}

func TestStateBytesRoundTrip(t *testing.T) {
	s := State{0x00010203, 0x04050607, 0x08090a0b, 0x0c0d0e0f}
	if got := StateFromBytes(s.Bytes()); got != s {
		t.Fatalf("round trip gave %+v", got)
	}
	if s.Bytes()[0] != 0x03 || s.Bytes()[4] != 0x07 {
		t.Fatalf("Bytes not little-endian per word: %x", s.Bytes())
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	s := refKey
	for _, n := range []int{0, 1, 4, Rounds, LTSRounds} {
		if got := InvPermute(Permute(s, n), n); got != s {
			t.Fatalf("InvPermute(Permute(s, %d)) = %+v, want %+v", n, got, s)
		}
	}
}

func TestRoundCountPanics(t *testing.T) {
	for _, n := range []int{-1, LTSRounds + 1} {
		for name, fn := range map[string]func(){
			"Permute":    func() { Permute(State{}, n) },
			"InvPermute": func() { InvPermute(State{}, n) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) did not panic", name, n)
					}
				}()
				fn()
			}()
		}
	}
}
