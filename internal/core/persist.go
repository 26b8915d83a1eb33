package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/bits"
	"repro/internal/nn"
)

// distFile is the serialized form of a trained distinguisher: the
// paper's ".h5 file plus experiment metadata" artifact.
type distFile struct {
	Magic    string
	Version  int
	Target   string
	Rounds   int
	Accuracy float64
	TrainAcc float64
	TrainN   int
	ValN     int
	Model    []byte // nn.Network serialization
}

const (
	distMagic   = "mldd-distinguisher"
	distVersion = 1
)

// SaveDistinguisher writes a trained distinguisher (its scenario
// identity, measured accuracy and network weights) to w. Only
// registry scenarios (NewScenarioByName) and NNClassifier models are
// supported; the online phase can then run in a separate process with
// LoadDistinguisher.
func SaveDistinguisher(w io.Writer, d *Distinguisher, target string, rounds int) error {
	nc, ok := d.Classifier.(*NNClassifier)
	if !ok {
		return fmt.Errorf("core: only NNClassifier-backed distinguishers can be saved, got %T", d.Classifier)
	}
	// Validate that (target, rounds) really reconstructs this scenario.
	s, err := NewScenarioByName(target, rounds)
	if err != nil {
		return err
	}
	if s.Name() != d.Scenario.Name() {
		return fmt.Errorf("core: scenario mismatch: distinguisher has %q, (%s, %d) reconstructs %q",
			d.Scenario.Name(), target, rounds, s.Name())
	}
	var model bytes.Buffer
	if err := nc.Net.Save(&model); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(&distFile{
		Magic:    distMagic,
		Version:  distVersion,
		Target:   target,
		Rounds:   rounds,
		Accuracy: d.Accuracy,
		TrainAcc: d.TrainAccuracy,
		TrainN:   d.TrainSamples,
		ValN:     d.ValSamples,
		Model:    model.Bytes(),
	})
}

// LoadDistinguisher reads a distinguisher written by SaveDistinguisher
// and reconstructs its scenario and network, ready for Distinguish or
// PlayGames. Distinguisher files cross process boundaries (training
// writes them, cmd/served and cmd/distinguisher -loaddist read them),
// so every decoded field is validated: a corrupt or truncated file
// yields a descriptive error, never a panic or an inconsistent model
// (FuzzLoadDistinguisher enforces this).
func LoadDistinguisher(r io.Reader) (*Distinguisher, error) {
	var df distFile
	if err := gob.NewDecoder(r).Decode(&df); err != nil {
		return nil, fmt.Errorf("core: decoding distinguisher: %w", err)
	}
	if df.Magic != distMagic {
		return nil, fmt.Errorf("core: not a distinguisher file (magic %q)", df.Magic)
	}
	if df.Version != distVersion {
		return nil, fmt.Errorf("core: unsupported distinguisher version %d", df.Version)
	}
	if df.Accuracy < 0 || df.Accuracy > 1 || df.Accuracy != df.Accuracy {
		return nil, fmt.Errorf("core: distinguisher file has accuracy %v outside [0,1]", df.Accuracy)
	}
	if df.TrainAcc < 0 || df.TrainAcc > 1 || df.TrainAcc != df.TrainAcc {
		return nil, fmt.Errorf("core: distinguisher file has training accuracy %v outside [0,1]", df.TrainAcc)
	}
	if df.TrainN < 0 || df.ValN < 0 {
		return nil, fmt.Errorf("core: distinguisher file has negative sample counts (train %d, val %d)", df.TrainN, df.ValN)
	}
	s, err := NewScenarioByName(df.Target, df.Rounds)
	if err != nil {
		return nil, err
	}
	net, err := nn.Load(bytes.NewReader(df.Model))
	if err != nil {
		return nil, fmt.Errorf("core: decoding distinguisher model: %w", err)
	}
	if net.InDim() != s.FeatureLen() || net.Classes() != s.Classes() {
		return nil, fmt.Errorf("core: model shape %d→%d does not match scenario %s (%d→%d)",
			net.InDim(), net.Classes(), s.Name(), s.FeatureLen(), s.Classes())
	}
	return &Distinguisher{
		Scenario:      s,
		Classifier:    &NNClassifier{Net: net},
		Accuracy:      df.Accuracy,
		TrainAccuracy: df.TrainAcc,
		TrainSamples:  df.TrainN,
		ValSamples:    df.ValN,
	}, nil
}

// datasetFile is the serialized form of a Dataset: the packed bit
// matrix verbatim, so a round trip is bit-exact and costs 64× less
// space than serializing float rows.
type datasetFile struct {
	Magic   string
	Version int
	Feat    int
	Y       []int
	Bits    []uint64
}

const (
	datasetMagic   = "mldd-dataset"
	datasetVersion = 1
	// maxFeatureBits bounds the per-sample feature length a dataset
	// file may declare (16M bits ≈ 2 MB/sample; the largest real
	// scenario uses 1536). It exists purely so a corrupt header cannot
	// request an absurd allocation or overflow the row-size arithmetic.
	maxFeatureBits = 1 << 24
)

// SaveDataset writes the dataset's packed backing store and labels to
// w. The cached float view is not serialized; LoadDataset rebuilds it
// lazily on demand.
func SaveDataset(w io.Writer, d *Dataset) error {
	return gob.NewEncoder(w).Encode(&datasetFile{
		Magic:   datasetMagic,
		Version: datasetVersion,
		Feat:    d.feat,
		Y:       d.Y,
		Bits:    d.bits,
	})
}

// LoadDataset reads a dataset written by SaveDataset. All decoded
// dimensions are validated before any dependent allocation — a
// corrupt or truncated file (wrong word count, negative feature
// length, negative labels) returns a descriptive error instead of
// panicking or allocating a bogus backing store.
func LoadDataset(r io.Reader) (*Dataset, error) {
	var df datasetFile
	if err := gob.NewDecoder(r).Decode(&df); err != nil {
		return nil, fmt.Errorf("core: decoding dataset: %w", err)
	}
	if df.Magic != datasetMagic {
		return nil, fmt.Errorf("core: not a dataset file (magic %q)", df.Magic)
	}
	if df.Version != datasetVersion {
		return nil, fmt.Errorf("core: unsupported dataset version %d", df.Version)
	}
	if df.Feat < 0 {
		return nil, fmt.Errorf("core: dataset has negative feature length %d", df.Feat)
	}
	if df.Feat > maxFeatureBits {
		return nil, fmt.Errorf("core: dataset feature length %d exceeds the %d-bit limit", df.Feat, maxFeatureBits)
	}
	// Consistency check BEFORE newDataset: a corrupt header must not
	// drive the size of the backing allocation (the bound on Feat also
	// keeps len(Y)*words below overflow for any decodable Y).
	words := bits.PackedWords(df.Feat)
	if len(df.Bits) != len(df.Y)*words {
		return nil, fmt.Errorf("core: dataset has %d packed words for %d×%d bits, want %d",
			len(df.Bits), len(df.Y), df.Feat, len(df.Y)*words)
	}
	for i, y := range df.Y {
		if y < 0 {
			return nil, fmt.Errorf("core: dataset label %d is negative (%d)", i, y)
		}
	}
	// Bits past Feat in a row's last word hold no feature; a packed
	// consumer indexing by bit position must never see one.
	for i := range df.Y {
		if pastFeatures(df.Bits[i*words:(i+1)*words], df.Feat) {
			return nil, fmt.Errorf("core: dataset row %d has bits set past feature %d", i, df.Feat)
		}
	}
	d := newDataset(len(df.Y), df.Feat)
	copy(d.Y, df.Y)
	copy(d.bits, df.Bits)
	return d, nil
}

// SaveDistinguisherFile writes the distinguisher to path.
func SaveDistinguisherFile(path string, d *Distinguisher, target string, rounds int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := SaveDistinguisher(f, d, target, rounds); err != nil {
		return err
	}
	return f.Close()
}

// LoadDistinguisherFile reads a distinguisher from path.
func LoadDistinguisherFile(path string) (*Distinguisher, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDistinguisher(f)
}
