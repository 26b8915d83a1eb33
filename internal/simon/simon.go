// Package simon implements the SIMON-32/64 block cipher of Beaulieu et
// al. ("The SIMON and SPECK Families of Lightweight Block Ciphers",
// ePrint 2013/404), the AND-RX sibling of SPECK and the first target of
// the related-key neural distinguishers of Lu et al. that this
// repository's related-key scenarios reproduce.
//
// SIMON-32/64 has a 32-bit block (two 16-bit words), a 64-bit key (four
// 16-bit words) and 32 rounds of the Feistel map
//
//	x, y ← y ⊕ f(x) ⊕ k, x     with f(x) = (x⋘1 & x⋘8) ⊕ x⋘2
//
// Round-reduced encryption is first-class because the distinguishers
// operate on 7–11 round versions, and the key schedule is exposed via
// Expand so related-key samplers can re-key a stack-allocated Cipher
// per sample without allocating.
package simon

import (
	"fmt"

	"repro/internal/bits"
)

// Rounds is the nominal number of rounds of SIMON-32/64.
const Rounds = 32

// KeyWords is the number of 16-bit key words.
const KeyWords = 4

// z0 is the period-62 constant sequence used by SIMON-32/64's key
// schedule, indexed (i−4) mod 62 for round key i.
const z0 = "11111010001001010110000111001101111101000100101011000011100110"

// Block is a 32-bit SIMON block as the word pair (X, Y); X is the
// left/high word in the Beaulieu et al. convention.
type Block struct {
	X, Y uint16
}

// XOR returns the word-wise XOR of two blocks — the difference used in
// differential cryptanalysis of SIMON.
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

// Key is the 4-word SIMON-32/64 key (k3, k2, k1, k0): key[0] is the
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

// Cipher is a SIMON-32/64 instance with an expanded key schedule.
type Cipher struct {
	rk [Rounds]uint16
}

// New expands the 4-word key. The key (k3, k2, k1, k0) is passed as
// key[0] = k3 … key[3] = k0, matching the big-endian test-vector layout
// 1918 1110 0908 0100.
func New(key Key) *Cipher {
	c := &Cipher{}
	c.Expand(key)
	return c
}

// Expand re-keys the cipher in place with the same schedule New
// computes, so hot loops that draw a fresh key per sample can reuse one
// stack-allocated Cipher instead of allocating per key.
func (c *Cipher) Expand(key Key) {
	c.rk[0], c.rk[1], c.rk[2], c.rk[3] = key[3], key[2], key[1], key[0]
	for i := KeyWords; i < Rounds; i++ {
		u := bits.RotR16(c.rk[i-1], 3) ^ c.rk[i-3]
		u ^= bits.RotR16(u, 1)
		// The round constant is c ⊕ z0[j] with c = 2^16 − 4 = 0xfffc.
		z := uint16(z0[(i-KeyWords)%62] - '0')
		c.rk[i] = 0xfffc ^ z ^ c.rk[i-KeyWords] ^ u
	}
}

// NewFromBytes expands an 8-byte key laid out as the big-endian words
// k3 ‖ k2 ‖ k1 ‖ k0 (the layout of the ePrint test vectors, e.g.
// 1918 1110 0908 0100).
func NewFromBytes(key []byte) (*Cipher, error) {
	if len(key) != 2*KeyWords {
		return nil, fmt.Errorf("simon: key must be %d bytes, got %d", 2*KeyWords, len(key))
	}
	var k Key
	for i := 0; i < KeyWords; i++ {
		k[i] = uint16(key[2*i])<<8 | uint16(key[2*i+1])
	}
	return New(k), nil
}

// RoundKey returns round key i, exposed for analysis code.
func (c *Cipher) RoundKey(i int) uint16 { return c.rk[i] }

// f is the SIMON round function (x⋘1 & x⋘8) ⊕ x⋘2.
func f(x uint16) uint16 {
	return (bits.RotL16(x, 1) & bits.RotL16(x, 8)) ^ bits.RotL16(x, 2)
}

// Encrypt applies the full 32-round cipher.
func (c *Cipher) Encrypt(b Block) Block { return c.EncryptRounds(b, Rounds) }

// Decrypt inverts Encrypt.
func (c *Cipher) Decrypt(b Block) Block { return c.DecryptRounds(b, Rounds) }

// EncryptRounds applies the first n rounds (round keys 0 … n−1). n must
// be in [0, 32].
func (c *Cipher) EncryptRounds(b Block, n int) Block {
	if n < 0 || n > Rounds {
		panic(fmt.Sprintf("simon: invalid round count %d", n))
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
		panic(fmt.Sprintf("simon: invalid round count %d", n))
	}
	x, y := b.X, b.Y
	for i := n - 1; i >= 0; i-- {
		x, y = y, x^f(y)^c.rk[i]
	}
	return Block{x, y}
}

// NDDelta is the input difference (0x0000, 0x0040) standard in the
// neural-distinguisher literature on SIMON-32/64: a single-bit
// difference in the right word, which the first round moves into the
// left word deterministically.
var NDDelta = Block{X: 0x0000, Y: 0x0040}

// LuKeyDelta is the related-key difference ∇ = (0, 0, 0, 0x0040) in the
// style of Lu et al.: a single-bit difference in the first round key k0
// that cancels NDDelta's right-word difference in round 1, giving a
// zero state difference until the key schedule re-injects ∇ through
// round key 4. Related-key distinguishers therefore reach several more
// rounds than single-key ones at the same accuracy.
var LuKeyDelta = Key{0, 0, 0, 0x0040}
