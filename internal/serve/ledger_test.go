package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ledger"
)

// newLedgerServer builds a server with an audit ledger in a temp dir
// and one admitted model.
func newLedgerServer(t *testing.T) (*Server, *httptest.Server, *ledger.Ledger, string) {
	t.Helper()
	dir := t.TempDir()
	anchorPath := filepath.Join(dir, "ledger.anchor")
	l, err := ledger.Open(filepath.Join(dir, "ledger.log"), ledger.Config{
		MaxBatch: 4, MaxDelay: time.Hour, AnchorPath: anchorPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Ledger: l})
	if _, seq, err := srv.Admit("speck4", modelPath(t)); err != nil || seq != 1 {
		t.Fatalf("Admit: seq=%d err=%v", seq, err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		l.Close()
	})
	return srv, ts, l, anchorPath
}

// TestLedgerRecordsAdmitAndVerdict: every admission and every verdict
// lands in the ledger, the distinguish response carries its ledger
// seq, and the served proof verifies offline against the served
// anchor.
func TestLedgerRecordsAdmitAndVerdict(t *testing.T) {
	_, ts, l, _ := newLedgerServer(t)
	d := offline(t)
	rows, labels := sampleRows(d, 7002, 64)

	resp, body := postJSON(t, ts.URL+"/v1/distinguish",
		classifyRequest{Model: "speck4", Rows: rows, Labels: labels})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distinguish: %d %s", resp.StatusCode, body)
	}
	var got distinguishResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.LedgerSeq != 2 {
		t.Fatalf("verdict ledgerSeq = %d, want 2 (after the admit record)", got.LedgerSeq)
	}

	// The anchor endpoint seals pending records and serves the head.
	resp, body = getURL(t, ts.URL+"/ledger/anchor")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anchor: %d %s", resp.StatusCode, body)
	}
	var anchor ledger.Anchor
	if err := json.Unmarshal(body, &anchor); err != nil {
		t.Fatal(err)
	}
	if anchor.Records != 2 {
		t.Fatalf("anchor covers %d records, want 2", anchor.Records)
	}

	// Both records prove against the served anchor, offline.
	for seq, wantKind := range map[uint64]string{1: ledger.KindAdmit, 2: ledger.KindVerdict} {
		resp, body = getURL(t, ts.URL+"/ledger/proof?seq="+map[uint64]string{1: "1", 2: "2"}[seq])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("proof %d: %d %s", seq, resp.StatusCode, body)
		}
		var p ledger.Proof
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		rec, err := ledger.VerifyInclusion(&p, anchor)
		if err != nil {
			t.Fatalf("proof %d does not verify: %v", seq, err)
		}
		if rec.Kind != wantKind || rec.Model != "speck4" {
			t.Fatalf("proof %d record = %+v, want kind %s", seq, rec, wantKind)
		}
		if wantKind == ledger.KindVerdict && (rec.Verdict != got.Verdict || rec.Queries != 64 || rec.Accuracy != got.Accuracy) {
			t.Fatalf("ledgered verdict %+v does not match response %+v", rec, got)
		}
	}
	_ = l
}

// TestLedgerHotReloadAdmits: a POST /models hot reload writes an admit
// record too.
func TestLedgerHotReloadAdmits(t *testing.T) {
	_, ts, l, _ := newLedgerServer(t)
	resp, body := postJSON(t, ts.URL+"/models", map[string]string{"name": "other", "path": modelPath(t)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	p, err := l.Proof(2)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ledger.VerifyInclusion(p, l.Anchor())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != ledger.KindAdmit || rec.Model != "other" {
		t.Fatalf("record 2 = %+v, want admit of %q", rec, "other")
	}
}

// TestLedgerAnchorFileMatchesServed: the detached anchor file equals
// the served anchor after a flush, so offline verification uses the
// same trust root clients download.
func TestLedgerAnchorFileMatchesServed(t *testing.T) {
	_, ts, _, anchorPath := newLedgerServer(t)
	resp, body := getURL(t, ts.URL+"/ledger/anchor")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anchor: %d", resp.StatusCode)
	}
	var served ledger.Anchor
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}
	onDisk, err := ledger.LoadAnchorFile(anchorPath)
	if err != nil {
		t.Fatal(err)
	}
	if served != onDisk {
		t.Fatalf("served anchor %+v != detached %+v", served, onDisk)
	}
}

func TestLedgerEndpointsWithoutLedger(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/ledger/anchor", "/ledger/proof?seq=1"} {
		resp, _ := getURL(t, ts.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without ledger = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestLedgerProofErrors(t *testing.T) {
	_, ts, _, _ := newLedgerServer(t)
	for path, want := range map[string]int{
		"/ledger/proof":        http.StatusBadRequest, // no seq
		"/ledger/proof?seq=xx": http.StatusBadRequest,
		// Only a whole decimal number names a record.
		"/ledger/proof?seq=12abc": http.StatusBadRequest,
		"/ledger/proof?seq=0x10":  http.StatusBadRequest,
		"/ledger/proof?seq=3%204": http.StatusBadRequest,
		"/ledger/proof?seq=99":    http.StatusNotFound,
	} {
		resp, _ := getURL(t, ts.URL+path)
		if resp.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestPerModelMetrics: the scheduler exports per-model request/row/
// batch counters, plus queue capacity and ledger totals, for the
// router's aggregated view.
func TestPerModelMetrics(t *testing.T) {
	_, ts, _, _ := newLedgerServer(t)
	d := offline(t)
	rows, _ := sampleRows(d, 11, 8)
	if resp, _ := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Model: "speck4", Rows: rows}); resp.StatusCode != 200 {
		t.Fatalf("classify failed: %d", resp.StatusCode)
	}
	_, body := getURL(t, ts.URL+"/metrics")
	for _, want := range []string{
		`served_model_requests_total{model="speck4"} 1`,
		`served_model_rows_total{model="speck4"} 8`,
		`served_model_batches_total{model="speck4"} 1`,
		"served_queue_capacity 256",
		"served_ledger_records_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
