package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/prng"
)

// goldenDigests pins, for every registered scenario family, the exact
// bytes the sampling API produces from seed 2020:
//
//   - dataset: SHA-256 of GenerateDatasetParallel(s, 131, prng.New(2020), w)
//     — every packed word, then every label, as little-endian uint64s —
//     which must be the same at w = 1, 4 and 7;
//   - sample: SHA-256 of 64 float Sample vectors drawn in sequence from
//     prng.New(2020), classes cycling 0, 1, …, t−1, each value as its
//     little-endian float64 bits;
//   - random: the same over 64 sequential RandomSample vectors.
//
// The identity tests elsewhere compare two sampling paths of one build;
// this table compares every build against fixed bytes, so a refactor of
// the sampling engine, or a vector kernel that differs from its scalar
// fallback, cannot move a sample unnoticed.
var goldenDigests = []struct {
	target                  string
	dataset, sample, random string
}{
	{"gimli-cipher",
		"53a100b6b3fecaba150ba538296c9d93c35ae3ca408b5a758b14048578ad19c2",
		"127282835696fef83af59f3d395a9c44acbeb3f99a871597a0da1761567fa5ca",
		"90f2f90b95d142d279a34af4cc6a300daf6f995f39d3e1f2e284ab07a61ac101"},
	{"gimli-hash",
		"086764018c729681dab4a8ac2ba03387205a0fcb9309955de4d8c7fd3d08c32b",
		"c907c9d3d01f45a2f967d22ac67a4c365196cb86c02d0a3234ebd3e8edf8214b",
		"90f2f90b95d142d279a34af4cc6a300daf6f995f39d3e1f2e284ab07a61ac101"},
	{"speck",
		"18bbe9e4332cc00d25dcd9614c2daaad37eadc9cd3a948c4768efe7a7c554b0a",
		"f7b32f60036190c238806d7ef63a9f9cd8bc02725d311edd5af20e54e8fd6114",
		"e16d0d02ede89d4ef7d4aef2fa972b3721302a1efa7b003ae905397e95d605c4"},
	{"gift64",
		"4555b1080545b2e021e7f67e6f82845f1bada9b961a0443842793675db24099f",
		"326dc5e45968818a7c3a17913f15d35942b7eed2f7bb3293d5c3cceea8dc4009",
		"3907b97c2166cd90ec771028d34edd844009e234fa3a24b6c1d1b0ce6ad655c3"},
	{"salsa",
		"f1fc87ce637a0cd59d7385ea1fc152f26387ed1ceceff0bc2bbbfb3ff8a5b674",
		"fc7e179997085dab11148f05453e3c189ae1bd8359b238a335c72bfff4788039",
		"158da1e3d0dfcad4397fd835fc686682cf69262b510b13c1663bb5fb5c570cab"},
	{"trivium",
		"2c054389a1a88f59070ba7812a32f19dc714c2314669d729b113f3467db87b77",
		"55bdf268feae602bcdb9e4ec50d419544907de99745708fa449da281a077b386",
		"90f2f90b95d142d279a34af4cc6a300daf6f995f39d3e1f2e284ab07a61ac101"},
	{"simon",
		"453134f4231451c019734019696abbf1c0b0c8eee4db91e1fdddca45374332b5",
		"c3a12704f0aa4819603f964669b2d6f512386d5bc98581709343332216229973",
		"e16d0d02ede89d4ef7d4aef2fa972b3721302a1efa7b003ae905397e95d605c4"},
	{"simon-rk",
		"283828ea2bed81336ef8d53d6e4caa0eb4d8d105dce431eb5d028430f2f650e4",
		"e360c64259a316f00b9bccbf6b698400a68fee95339e1fb0c801dc87d04cebd9",
		"e16d0d02ede89d4ef7d4aef2fa972b3721302a1efa7b003ae905397e95d605c4"},
	{"simeck",
		"d977ca5359da7ad683fedd8cc28458f83831cd75799246124bc6ba348deb79b0",
		"e69241a7e5895609326448f188359131789d672b5c7452ce5d58cd2e68e5f5c8",
		"e16d0d02ede89d4ef7d4aef2fa972b3721302a1efa7b003ae905397e95d605c4"},
	{"simeck-rk",
		"2b6eaa600e432c87ab29e9011f0eb98c25d9649a8d629370879606a98da92ee8",
		"45f1e801189ede765b04a790a2b55e9f517e7bb08fffae7db2af997f543e49fb",
		"e16d0d02ede89d4ef7d4aef2fa972b3721302a1efa7b003ae905397e95d605c4"},
	{"chaskey",
		"af90e5923f7c3b3082042f53f3fb72947f8fb97f10f6d43c371e47039123005f",
		"ce25ec4888d5e10327040c64e8751c1fa28a86e6017a4e8b9cb0b2182bb46910",
		"90f2f90b95d142d279a34af4cc6a300daf6f995f39d3e1f2e284ab07a61ac101"},
}

func putWord(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func putFloats(h hash.Hash, x []float64) {
	for _, v := range x {
		putWord(h, math.Float64bits(v))
	}
}

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// TestGoldenDigests checks every registered family against its pinned
// digests. Run with -v to print the digests a build actually produces.
func TestGoldenDigests(t *testing.T) {
	withParallelism(t, 8)
	fams := ScenarioFamilies()
	if len(fams) != len(goldenDigests) {
		t.Fatalf("registry has %d families, golden table pins %d", len(fams), len(goldenDigests))
	}
	for i, f := range fams {
		g := goldenDigests[i]
		if f.Target != g.target {
			t.Fatalf("family %d is %q, golden table has %q", i, f.Target, g.target)
		}
		s, err := f.New(f.Rounds)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 7} {
			d := GenerateDatasetParallel(s, 131, prng.New(2020), workers)
			h := sha256.New()
			for _, w := range d.PackedBits() {
				putWord(h, w)
			}
			for _, y := range d.Y {
				putWord(h, uint64(y))
			}
			if got := digest(h); got != g.dataset {
				t.Errorf("%s workers=%d: dataset digest %s, want %s", f.Target, workers, got, g.dataset)
			}
		}
		r := prng.New(2020)
		h := sha256.New()
		for i := 0; i < 64; i++ {
			putFloats(h, Sample(s, r, i%s.Classes()))
		}
		if got := digest(h); got != g.sample {
			t.Errorf("%s: Sample digest %s, want %s", f.Target, got, g.sample)
		}
		r = prng.New(2020)
		h = sha256.New()
		for i := 0; i < 64; i++ {
			putFloats(h, RandomSample(s, r))
		}
		if got := digest(h); got != g.random {
			t.Errorf("%s: RandomSample digest %s, want %s", f.Target, got, g.random)
		}
	}
}
