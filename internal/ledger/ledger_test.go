package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/prng"
	"repro/internal/testkit"
)

// testRecord builds a deterministic record for sequence-dependent
// content (seq itself is assigned by Append).
func testRecord(i int) Record {
	kind := KindVerdict
	if i%3 == 0 {
		kind = KindAdmit
	}
	return Record{
		Time:     1_700_000_000_000_000_000 + int64(i),
		Kind:     kind,
		Model:    fmt.Sprintf("speck%d", i%5),
		Version:  1 + i%4,
		Scenario: "speck32-4r-real-vs-random",
		Accuracy: 0.5 + float64(i%40)/100,
		Verdict:  "CIPHER",
		Queries:  64 + i,
	}
}

// buildLedger appends n records with the given batch size into dir and
// returns the log path, anchor path and the sealed anchor.
func buildLedger(t testing.TB, dir string, n, maxBatch int) (string, string, Anchor) {
	t.Helper()
	logPath := filepath.Join(dir, "ledger.log")
	anchorPath := filepath.Join(dir, "ledger.anchor")
	l, err := Open(logPath, Config{MaxBatch: maxBatch, MaxDelay: time.Hour, AnchorPath: anchorPath})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := LoadAnchorFile(anchorPath)
	if err != nil {
		t.Fatal(err)
	}
	return logPath, anchorPath, a
}

func TestAppendSealVerifyRoundTrip(t *testing.T) {
	logPath, _, anchor := buildLedger(t, t.TempDir(), 10, 4)
	if anchor.Records != 10 || anchor.Batches != 3 {
		t.Fatalf("anchor = %+v, want 10 records in 3 batches", anchor)
	}
	stats, err := VerifyLogFile(logPath, &anchor)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if stats.Records != 10 || stats.Batches != 3 || stats.Chain != anchor.Chain {
		t.Fatalf("stats = %+v vs anchor %+v", stats, anchor)
	}
}

func TestProofEveryRecord(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "ledger.log")
	l, err := Open(logPath, Config{MaxBatch: 3, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 11
	for i := 0; i < n; i++ {
		seq, err := l.Append(testRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d returned seq %d", i, seq)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	anchor := l.Anchor()
	for seq := uint64(1); seq <= n; seq++ {
		p, err := l.Proof(seq)
		if err != nil {
			t.Fatalf("proof %d: %v", seq, err)
		}
		rec, err := VerifyInclusion(p, anchor)
		if err != nil {
			t.Fatalf("verify proof %d: %v", seq, err)
		}
		want := testRecord(int(seq - 1))
		want.Seq = seq
		if rec != want {
			t.Fatalf("proof %d round-tripped %+v, want %+v", seq, rec, want)
		}
	}
}

// TestProofSealsPending: requesting a proof for a still-pending record
// seals the open batch so the proof can exist.
func TestProofSealsPending(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "l.log"), Config{MaxBatch: 100, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq, err := l.Append(testRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	if a := l.Anchor(); a.Records != 0 {
		t.Fatalf("pre-seal anchor covers %d records", a.Records)
	}
	p, err := l.Proof(seq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyInclusion(p, l.Anchor()); err != nil {
		t.Fatal(err)
	}
}

// TestDelayFlush: a single record seals on its own after MaxDelay.
func TestDelayFlush(t *testing.T) {
	anchorPath := filepath.Join(t.TempDir(), "l.anchor")
	l, err := Open(filepath.Join(filepath.Dir(anchorPath), "l.log"),
		Config{MaxBatch: 100, MaxDelay: 10 * time.Millisecond, AnchorPath: anchorPath})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Anchor().Records != 1 {
		if time.Now().After(deadline) {
			t.Fatal("record never sealed by the delay flush")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if a, err := LoadAnchorFile(anchorPath); err != nil || a.Records != 1 {
		t.Fatalf("anchor file after delay flush: %+v, %v", a, err)
	}
}

// TestReopenExtends: closing and reopening continues the same chain,
// and the grown log still verifies against the grown anchor.
func TestReopenExtends(t *testing.T) {
	dir := t.TempDir()
	logPath, anchorPath, first := buildLedger(t, dir, 5, 2)
	l, err := Open(logPath, Config{MaxBatch: 2, MaxDelay: time.Hour, AnchorPath: anchorPath})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Len(); got != 5 {
		t.Fatalf("reopened Len = %d, want 5", got)
	}
	seq, err := l.Append(testRecord(5))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("append after reopen got seq %d, want 6", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	anchor, err := LoadAnchorFile(anchorPath)
	if err != nil {
		t.Fatal(err)
	}
	if anchor.Records != 6 || anchor.Chain == first.Chain {
		t.Fatalf("anchor after reopen = %+v (first chain %s)", anchor, first.Chain)
	}
	if _, err := VerifyLogFile(logPath, &anchor); err != nil {
		t.Fatalf("grown log fails verify: %v", err)
	}
	// The old anchor no longer matches the grown log — and says so.
	if _, err := VerifyLogFile(logPath, &first); err == nil {
		t.Fatal("stale anchor accepted for grown log")
	}
}

func TestOpenRejectsTamperedLog(t *testing.T) {
	dir := t.TempDir()
	logPath, _, _ := buildLedger(t, dir, 6, 3)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0x01
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(logPath, Config{}); err == nil {
		t.Fatal("Open accepted a tampered log")
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(filepath.Join(dir, "l.log"), Config{MaxBatch: 2, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Proof(1); err == nil {
		t.Fatal("Proof on empty ledger succeeded")
	}
	if _, err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Proof(5); err == nil || !strings.Contains(err.Error(), "no record 5") {
		t.Fatalf("Proof(5) = %v, want out-of-range error", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testRecord(1)); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := LoadAnchorFile(filepath.Join(dir, "missing.anchor")); err == nil {
		t.Fatal("LoadAnchorFile on missing file succeeded")
	}
	bad := filepath.Join(dir, "bad.anchor")
	os.WriteFile(bad, []byte(`{"chain":"zz"}`), 0o644)
	if _, err := LoadAnchorFile(bad); err == nil {
		t.Fatal("LoadAnchorFile accepted a non-hex chain")
	}
	if _, err := VerifyLogFile(filepath.Join(dir, "missing.log"), nil); err == nil {
		t.Fatal("VerifyLogFile on missing file succeeded")
	}
}

// ledgerShape drives the property test: a record count and a batch
// size, both drawn small enough to exercise every tree shape (single
// leaf, perfect trees, ragged last subtree).
type ledgerShape struct {
	Records  int
	MaxBatch int
}

// TestInclusionProofProperty: for random (records, batch-size) shapes,
// every record's inclusion proof verifies against the anchor and
// round-trips the record — the testkit property the satellite asks for.
func TestInclusionProofProperty(t *testing.T) {
	gen := testkit.Gen[ledgerShape]{
		Name: "ledgerShape",
		Generate: func(r *prng.Rand) ledgerShape {
			return ledgerShape{
				Records:  1 + int(r.Uint64()%40),
				MaxBatch: 1 + int(r.Uint64()%9),
			}
		},
		Shrink: func(v ledgerShape) []ledgerShape {
			var out []ledgerShape
			if v.Records > 1 {
				out = append(out, ledgerShape{v.Records / 2, v.MaxBatch}, ledgerShape{v.Records - 1, v.MaxBatch})
			}
			if v.MaxBatch > 1 {
				out = append(out, ledgerShape{v.Records, v.MaxBatch / 2})
			}
			return out
		},
	}
	testkit.CheckConfig(t, "ledger inclusion proofs verify for every record", gen, func(v ledgerShape) error {
		dir, err := os.MkdirTemp("", "ledger-prop")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		logPath := filepath.Join(dir, "l.log")
		l, err := Open(logPath, Config{MaxBatch: v.MaxBatch, MaxDelay: time.Hour})
		if err != nil {
			return err
		}
		defer l.Close()
		for i := 0; i < v.Records; i++ {
			if _, err := l.Append(testRecord(i)); err != nil {
				return err
			}
		}
		if err := l.Flush(); err != nil {
			return err
		}
		anchor := l.Anchor()
		if anchor.Records != uint64(v.Records) {
			return fmt.Errorf("anchor covers %d records, appended %d", anchor.Records, v.Records)
		}
		wantBatches := uint64((v.Records + v.MaxBatch - 1) / v.MaxBatch)
		if anchor.Batches != wantBatches {
			return fmt.Errorf("anchor has %d batches, want %d", anchor.Batches, wantBatches)
		}
		for seq := uint64(1); seq <= uint64(v.Records); seq++ {
			p, err := l.Proof(seq)
			if err != nil {
				return fmt.Errorf("proof %d: %w", seq, err)
			}
			rec, err := VerifyInclusion(p, anchor)
			if err != nil {
				return fmt.Errorf("verify %d: %w", seq, err)
			}
			if rec.Seq != seq || rec.Model != testRecord(int(seq-1)).Model {
				return fmt.Errorf("proof %d round-tripped wrong record %+v", seq, rec)
			}
		}
		return nil
	}, testkit.Config{Count: 40})
}

func BenchmarkLedgerAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(filepath.Join(dir, "bench.log"), Config{MaxBatch: 256, MaxDelay: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := testRecord(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := l.Flush(); err != nil {
		b.Fatal(err)
	}
}
