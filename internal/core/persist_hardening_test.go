package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/prng"
)

// encodeDist gob-encodes a hand-built distFile, simulating a corrupt
// or hostile file that passes gob decoding but carries bad metadata.
func encodeDist(t *testing.T, df *distFile) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(df); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

func encodeDataset(t *testing.T, df *datasetFile) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(df); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

// validDistFile builds a well-formed distFile for a tiny untrained
// speck model; tests tamper with individual fields from here.
func validDistFile(t *testing.T) *distFile {
	t.Helper()
	s, err := NewSpeckScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewMLPClassifier(s.FeatureLen(), s.Classes(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := &Distinguisher{Scenario: s, Classifier: c, Accuracy: 0.7, TrainAccuracy: 0.72, TrainSamples: 32, ValSamples: 16}
	var buf bytes.Buffer
	if err := SaveDistinguisher(&buf, d, "speck", 5); err != nil {
		t.Fatal(err)
	}
	var df distFile
	if err := gob.NewDecoder(&buf).Decode(&df); err != nil {
		t.Fatal(err)
	}
	return &df
}

func TestLoadDistinguisherRejectsCorruptMetadata(t *testing.T) {
	base := validDistFile(t)
	// Sanity: the untampered file loads.
	if _, err := LoadDistinguisher(encodeDist(t, base)); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*distFile)
		wantSub string
	}{
		{"bad magic", func(df *distFile) { df.Magic = "nope" }, "not a distinguisher"},
		{"bad version", func(df *distFile) { df.Version = 99 }, "version"},
		{"accuracy above 1", func(df *distFile) { df.Accuracy = 1.5 }, "accuracy"},
		{"accuracy NaN", func(df *distFile) { df.Accuracy = math.NaN() }, "accuracy"},
		{"train accuracy negative", func(df *distFile) { df.TrainAcc = -0.1 }, "training accuracy"},
		{"train accuracy NaN", func(df *distFile) { df.TrainAcc = math.NaN() }, "training accuracy"},
		{"negative sample counts", func(df *distFile) { df.TrainN = -1 }, "sample counts"},
		{"negative val count", func(df *distFile) { df.ValN = -5 }, "sample counts"},
		{"unknown target", func(df *distFile) { df.Target = "des" }, "unknown scenario"},
		{"bad rounds", func(df *distFile) { df.Rounds = -3 }, ""},
		{"corrupt model bytes", func(df *distFile) { df.Model = []byte("zzz") }, "decoding distinguisher model"},
		{"truncated model bytes", func(df *distFile) { df.Model = df.Model[:len(df.Model)/2] }, "decoding distinguisher model"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			df := *base
			c.mutate(&df)
			_, err := LoadDistinguisher(encodeDist(t, &df))
			if err == nil {
				t.Fatal("corrupt file accepted")
			}
			if c.wantSub != "" && !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
	// Model bytes from a different scenario shape must be rejected.
	t.Run("shape mismatch", func(t *testing.T) {
		df := *base
		// Swap in model bytes trained for a different feature length.
		s, _ := NewGimliCipherScenario(4)
		c, err := NewMLPClassifier(s.FeatureLen(), s.Classes(), 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		d := &Distinguisher{Scenario: s, Classifier: c, Accuracy: 0.7}
		if err := SaveDistinguisher(&buf, d, "gimli-cipher", 4); err != nil {
			t.Fatal(err)
		}
		var gdf distFile
		if err := gob.NewDecoder(&buf).Decode(&gdf); err != nil {
			t.Fatal(err)
		}
		df.Model = gdf.Model
		if _, err := LoadDistinguisher(encodeDist(t, &df)); err == nil ||
			!strings.Contains(err.Error(), "does not match scenario") {
			t.Fatalf("shape mismatch gave %v", err)
		}
	})
}

func TestLoadDatasetRejectsCorruptFiles(t *testing.T) {
	s, err := NewSpeckScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	ds := GenerateDataset(s, 4, prng.New(3))
	var buf bytes.Buffer
	if err := SaveDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	var base datasetFile
	if err := gob.NewDecoder(&buf).Decode(&base); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(encodeDataset(t, &base)); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*datasetFile)
		wantSub string
	}{
		{"garbage stream", nil, "decoding dataset"},
		{"bad magic", func(df *datasetFile) { df.Magic = "nope" }, "not a dataset"},
		{"bad version", func(df *datasetFile) { df.Version = 7 }, "version"},
		{"negative feature length", func(df *datasetFile) { df.Feat = -8 }, "negative feature length"},
		{"absurd feature length", func(df *datasetFile) { df.Feat = maxFeatureBits + 1 }, "exceeds"},
		{"truncated bit words", func(df *datasetFile) { df.Bits = df.Bits[:len(df.Bits)-1] }, "packed words"},
		{"extra bit words", func(df *datasetFile) { df.Bits = append(append([]uint64(nil), df.Bits...), 0) }, "packed words"},
		{"negative label", func(df *datasetFile) { df.Y = append([]int(nil), df.Y...); df.Y[1] = -2 }, "negative"},
		{"feat drift breaks word count", func(df *datasetFile) { df.Feat = df.Feat + 64 }, "packed words"},
		{"bits past the feature length", func(df *datasetFile) {
			df.Bits = append([]uint64(nil), df.Bits...)
			df.Bits[len(df.Bits)-1] |= 1 << df.Feat
		}, "past feature"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.mutate == nil {
				if _, err := LoadDataset(bytes.NewReader([]byte("garbage"))); err == nil ||
					!strings.Contains(err.Error(), c.wantSub) {
					t.Fatalf("garbage gave %v", err)
				}
				return
			}
			df := base
			c.mutate(&df)
			_, err := LoadDataset(encodeDataset(t, &df))
			if err == nil {
				t.Fatal("corrupt file accepted")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}
