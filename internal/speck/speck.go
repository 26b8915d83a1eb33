// Package speck implements the SPECK-32/64 block cipher of Beaulieu et
// al., the target of Gohr's CRYPTO 2019 neural distinguishers that the
// paper builds on (Section 2.3).
//
// SPECK-32/64 has a 32-bit block (two 16-bit words), a 64-bit key (four
// 16-bit words) and 22 rounds. The round function is the ARX map
//
//	x ← (x ⋙ 7 + y) ⊕ k,   y ← (y ⋘ 2) ⊕ x
//
// Round-reduced encryption is first-class because the distinguishers
// operate on 5–8 round versions. SPECK is a Markov cipher (round keys
// decouple the rounds), which is why Gohr could compute exact all-in-one
// distributions for it; GIMLI cannot be treated this way — that contrast
// is the motivation of the paper.
package speck

import (
	"fmt"

	"repro/internal/bits"
)

// Rounds is the nominal number of rounds of SPECK-32/64.
const Rounds = 22

// KeyWords is the number of 16-bit key words.
const KeyWords = 4

const (
	alpha = 7 // right-rotation in the round function
	beta  = 2 // left-rotation in the round function
)

// Block is a 32-bit SPECK block as the word pair (X, Y); X is the
// left/high word in the Beaulieu et al. convention.
type Block struct {
	X, Y uint16
}

// XOR returns the word-wise XOR of two blocks — the difference used in
// differential cryptanalysis of SPECK.
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

// Cipher is a SPECK-32/64 instance with an expanded key schedule.
type Cipher struct {
	rk [Rounds]uint16
}

// New expands the 4-word key. Following the design document, the key
// (l2, l1, l0, k0) is passed as key[0] = l2, key[1] = l1, key[2] = l0,
// key[3] = k0.
func New(key [KeyWords]uint16) *Cipher {
	c := &Cipher{}
	c.Expand(key)
	return c
}

// Expand re-keys the cipher in place with the same schedule New
// computes, so hot loops that draw a fresh key per sample can reuse one
// stack-allocated Cipher instead of allocating per key.
func (c *Cipher) Expand(key [KeyWords]uint16) {
	var l [Rounds + KeyWords - 2]uint16
	l[2], l[1], l[0] = key[0], key[1], key[2]
	c.rk[0] = key[3]
	for i := 0; i < Rounds-1; i++ {
		l[i+3] = (c.rk[i] + bits.RotR16(l[i], alpha)) ^ uint16(i)
		c.rk[i+1] = bits.RotL16(c.rk[i], beta) ^ l[i+3]
	}
}

// NewFromBytes expands an 8-byte key laid out as the big-endian words
// l2 ‖ l1 ‖ l0 ‖ k0 (the layout of the design document's test vectors,
// e.g. 1918 1110 0908 0100).
func NewFromBytes(key []byte) (*Cipher, error) {
	if len(key) != 2*KeyWords {
		return nil, fmt.Errorf("speck: key must be %d bytes, got %d", 2*KeyWords, len(key))
	}
	var k [KeyWords]uint16
	for i := 0; i < KeyWords; i++ {
		k[i] = uint16(key[2*i])<<8 | uint16(key[2*i+1])
	}
	return New(k), nil
}

// RoundKey returns round key i, exposed for analysis code.
func (c *Cipher) RoundKey(i int) uint16 { return c.rk[i] }

// roundEnc applies one keyed SPECK round.
func roundEnc(b Block, k uint16) Block {
	x := (bits.RotR16(b.X, alpha) + b.Y) ^ k
	y := bits.RotL16(b.Y, beta) ^ x
	return Block{x, y}
}

// roundDec inverts roundEnc.
func roundDec(b Block, k uint16) Block {
	y := bits.RotR16(b.Y^b.X, beta)
	x := bits.RotL16((b.X^k)-y, alpha)
	return Block{x, y}
}

// Encrypt applies the full 22-round cipher.
func (c *Cipher) Encrypt(b Block) Block { return c.EncryptRounds(b, Rounds) }

// Decrypt inverts Encrypt.
func (c *Cipher) Decrypt(b Block) Block { return c.DecryptRounds(b, Rounds) }

// EncryptRounds applies the first n rounds (round keys 0 … n−1). n must
// be in [0, 22].
func (c *Cipher) EncryptRounds(b Block, n int) Block {
	if n < 0 || n > Rounds {
		panic(fmt.Sprintf("speck: invalid round count %d", n))
	}
	for i := 0; i < n; i++ {
		b = roundEnc(b, c.rk[i])
	}
	return b
}

// DecryptRounds inverts EncryptRounds.
func (c *Cipher) DecryptRounds(b Block, n int) Block {
	if n < 0 || n > Rounds {
		panic(fmt.Sprintf("speck: invalid round count %d", n))
	}
	for i := n - 1; i >= 0; i-- {
		b = roundDec(b, c.rk[i])
	}
	return b
}

// GohrDelta is the input difference (0x0040, 0x0000) used by Gohr's
// neural distinguishers: a single-bit difference that transitions
// deterministically through the first round.
var GohrDelta = Block{X: 0x0040, Y: 0x0000}
