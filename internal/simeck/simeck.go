// Package simeck implements the SIMECK-32/64 block cipher of Yang,
// Zhu, Suder, Aagaard and Gong (CHES 2015), a hardware-minimized blend
// of SIMON's round function with SPECK's reuse of it as the key
// schedule. SIMECK-32/64 is the second target of the related-key
// neural distinguishers of Lu et al. that this repository's
// related-key scenarios reproduce.
//
// SIMECK-32/64 has a 32-bit block (two 16-bit words), a 64-bit key
// (four 16-bit words) and 32 rounds of the Feistel map
//
//	x, y ← y ⊕ f(x) ⊕ k, x     with f(x) = (x & x⋘5) ⊕ x⋘1
//
// The key schedule applies the same map to the key registers with the
// round constant 0xfffc ⊕ z_i, where z_i comes from the LFSR
// x^5 + x^2 + 1 initialized to all-ones. Round-reduced encryption is
// first-class because the distinguishers operate on 8–12 round
// versions.
package simeck

import (
	"fmt"

	"repro/internal/bits"
)

// Rounds is the nominal number of rounds of SIMECK-32/64.
const Rounds = 32

// KeyWords is the number of 16-bit key words.
const KeyWords = 4

// Block is a 32-bit SIMECK block as the word pair (X, Y); X is the
// left/high word in the Yang et al. convention.
type Block struct {
	X, Y uint16
}

// XOR returns the word-wise XOR of two blocks — the difference used in
// differential cryptanalysis of SIMECK.
func (b Block) XOR(o Block) Block { return Block{b.X ^ o.X, b.Y ^ o.Y} }

// Bytes serializes the block as X ‖ Y, each little-endian.
func (b Block) Bytes() []byte {
	return []byte{byte(b.X), byte(b.X >> 8), byte(b.Y), byte(b.Y >> 8)}
}

// BlockFromBytes deserializes Bytes.
func BlockFromBytes(p []byte) Block {
	_ = p[3]
	return Block{
		X: uint16(p[0]) | uint16(p[1])<<8,
		Y: uint16(p[2]) | uint16(p[3])<<8,
	}
}

// Key is the 4-word SIMECK-32/64 key (t2, t1, t0, k0): key[0] is the
// most-significant word of the test-vector layout, key[3] the first
// round key.
type Key [KeyWords]uint16

// XOR returns the word-wise XOR of two keys — the related-key
// difference ∇ of Lu et al.'s distinguishers.
func (k Key) XOR(o Key) Key {
	return Key{k[0] ^ o[0], k[1] ^ o[1], k[2] ^ o[2], k[3] ^ o[3]}
}

// IsZero reports whether every key word is zero.
func (k Key) IsZero() bool { return k[0]|k[1]|k[2]|k[3] == 0 }

// Cipher is a SIMECK-32/64 instance with an expanded key schedule.
type Cipher struct {
	rk [Rounds]uint16
}

// New expands the 4-word key. The key (t2, t1, t0, k0) is passed as
// key[0] = t2 … key[3] = k0, matching the big-endian test-vector
// layout 1918 1110 0908 0100.
func New(key Key) *Cipher {
	c := &Cipher{}
	c.Expand(key)
	return c
}

// f is the SIMECK round function (x & x⋘5) ⊕ x⋘1, shared between the
// state update and the key schedule.
func f(x uint16) uint16 {
	return (x & bits.RotL16(x, 5)) ^ bits.RotL16(x, 1)
}

// Expand re-keys the cipher in place with the same schedule New
// computes, so hot loops that draw a fresh key per sample can reuse one
// stack-allocated Cipher instead of allocating per key. Round key i is
// the low register after i applications of the round function to the
// key state with constant 0xfffc ⊕ z_i, z being the x^5 + x^2 + 1 LFSR
// sequence seeded with all-ones.
func (c *Cipher) Expand(key Key) {
	t2, t1, t0, k := key[0], key[1], key[2], key[3]
	lfsr := uint16(0x1f) // 5-bit LFSR state, all-ones init
	for i := 0; i < Rounds; i++ {
		c.rk[i] = k
		z := lfsr & 1
		lfsr = lfsr>>1 | (z^lfsr>>2&1)<<4 // x^5 + x^2 + 1: s_{t+5} = s_{t+2} ⊕ s_t
		k, t0, t1, t2 = t0, t1, t2, k^f(t0)^0xfffc^z
	}
}

// NewFromBytes expands an 8-byte key laid out as the big-endian words
// t2 ‖ t1 ‖ t0 ‖ k0 (the layout of the CHES 2015 test vectors, e.g.
// 1918 1110 0908 0100).
func NewFromBytes(key []byte) (*Cipher, error) {
	if len(key) != 2*KeyWords {
		return nil, fmt.Errorf("simeck: key must be %d bytes, got %d", 2*KeyWords, len(key))
	}
	var k Key
	for i := 0; i < KeyWords; i++ {
		k[i] = uint16(key[2*i])<<8 | uint16(key[2*i+1])
	}
	return New(k), nil
}

// RoundKey returns round key i, exposed for analysis code.
func (c *Cipher) RoundKey(i int) uint16 { return c.rk[i] }

// Encrypt applies the full 32-round cipher.
func (c *Cipher) Encrypt(b Block) Block { return c.EncryptRounds(b, Rounds) }

// Decrypt inverts Encrypt.
func (c *Cipher) Decrypt(b Block) Block { return c.DecryptRounds(b, Rounds) }

// EncryptRounds applies the first n rounds (round keys 0 … n−1). n must
// be in [0, 32].
func (c *Cipher) EncryptRounds(b Block, n int) Block {
	if n < 0 || n > Rounds {
		panic(fmt.Sprintf("simeck: invalid round count %d", n))
	}
	x, y := b.X, b.Y
	for i := 0; i < n; i++ {
		x, y = y^f(x)^c.rk[i], x
	}
	return Block{x, y}
}

// DecryptRounds inverts EncryptRounds.
func (c *Cipher) DecryptRounds(b Block, n int) Block {
	if n < 0 || n > Rounds {
		panic(fmt.Sprintf("simeck: invalid round count %d", n))
	}
	x, y := b.X, b.Y
	for i := n - 1; i >= 0; i-- {
		x, y = y, x^f(y)^c.rk[i]
	}
	return Block{x, y}
}

// NDDelta is the input difference (0x0000, 0x0002) standard in the
// neural-distinguisher literature on SIMECK-32/64: a single-bit
// difference in the right word, which the first round moves into the
// left word deterministically.
var NDDelta = Block{X: 0x0000, Y: 0x0002}

// LuKeyDelta is the related-key difference ∇ = (0, 0, 0, 0x0002) in the
// style of Lu et al.: a single-bit difference in the first round key k0
// that cancels NDDelta's right-word difference in round 1, giving a
// zero state difference until the key schedule re-injects ∇ through
// round key 4.
var LuKeyDelta = Key{0, 0, 0, 0x0002}
