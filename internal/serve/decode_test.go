package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/core"
)

// classifyRequest is the body of /v1/classify and /v1/distinguish as
// encoding/json reads it: the specification the hand-written decoder
// is fuzzed against, and the shape the tests post. Feature rows arrive
// either as float rows (JSON arrays of 0/1) or as hex strings packing
// the feature bits in the repository's little-endian bit order
// (bits.Hex of the feature bytes); exactly one of the two must be set.
type classifyRequest struct {
	Model string      `json:"model"`
	Rows  [][]float64 `json:"rows,omitempty"`
	Hex   []string    `json:"hex,omitempty"`
	// Labels (distinguish only): the class index each query was made
	// with, cycling the scenario's t classes as in Algorithm 2.
	Labels []int `json:"labels,omitempty"`
	// Sigmas (distinguish only) is the decision threshold (default 3).
	Sigmas float64 `json:"sigmas,omitempty"`
}

// oracleRequest decodes body as the server did before its hand-written
// decoder: encoding/json into classifyRequest, then bits.FromHex and
// the bits packers row by row, keeping maxRows rows and labels.
func oracleRequest(body []byte, maxRows int) (*request, error) {
	var cr classifyRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&cr); err != nil {
		return nil, badRequest("invalid JSON body: %v", err)
	}
	q := &request{
		model: cr.Model, sigmas: cr.Sigmas,
		nRows: len(cr.Rows), nHex: len(cr.Hex), nLabels: len(cr.Labels),
		ragged: -1, fault: -1,
	}
	if len(cr.Labels) > 0 {
		q.labels = cr.Labels[:min(len(cr.Labels), maxRows)]
	}
	keep := func(k, n int) bool {
		switch {
		case k == 0:
			q.width = n
		case n != q.width:
			q.ragged, q.raggedLen = k, n
			return false
		}
		return true
	}
	fault := func(k int) {
		if q.fault < 0 {
			q.fault = k
		}
	}
	if len(cr.Rows) > 0 {
		for k, row := range cr.Rows[:min(len(cr.Rows), maxRows)] {
			if !keep(k, len(row)) {
				break
			}
			for _, v := range row {
				if v != 0 && v != 1 {
					fault(k)
				}
			}
			words := make([]uint64, bits.PackedWords(len(row)))
			bits.PackFloats(words, row)
			q.x.Data = append(q.x.Data, words...)
		}
		return q, nil
	}
	q.hex = len(cr.Hex) > 0
	for k, h := range cr.Hex[:min(len(cr.Hex), maxRows)] {
		if !keep(k, len(h)) {
			break
		}
		b, err := bits.FromHex(h)
		if err != nil {
			fault(k)
		}
		words := make([]uint64, bits.PackedWords(8*len(b)))
		bits.PackBytes(words, b)
		q.x.Data = append(q.x.Data, words...)
	}
	return q, nil
}

// widthScenario is a scenario stub with a given feature width and
// class count: all validation needs to know of a model.
type widthScenario struct {
	core.Scenario
	width, classes int
}

func (s widthScenario) FeatureLen() int { return s.width }
func (s widthScenario) Classes() int    { return s.classes }

// decodeModels are the models the codec tests validate against: "m",
// 12 features over 3 classes (a hex row's last byte carries 4 bits
// past the features); "w", 70 features over 2 classes (rows span two
// words); and "g", perfbench's 128-feature, 2-class shape.
var decodeModels = map[string]*Entry{
	"m": {Name: "m", Dist: &core.Distinguisher{Scenario: widthScenario{width: 12, classes: 3}}},
	"w": {Name: "w", Dist: &core.Distinguisher{Scenario: widthScenario{width: 70, classes: 2}}},
	"g": {Name: "g", Dist: &core.Distinguisher{Scenario: widthScenario{width: 128, classes: 2}}},
}

// bigLabel is 2^32, an int on 64-bit platforms only; a classify body
// carrying it is accepted there (labels are unchecked) and refused
// where int has 32 bits, as encoding/json refuses it.
const bigLabel = "4294967296"

var bigLabelClassify = map[bool]int{true: http.StatusOK, false: http.StatusBadRequest}[strconv.IntSize == 64]

// decodeMaxBatch is the row cap the codec tests validate against.
const decodeMaxBatch = 4

func getDecodeModel(name string) (*Entry, bool) {
	e, ok := decodeModels[name]
	return e, ok
}

// decodeStatus runs body through decode and the shared validation, as
// a handler does, returning the request and its status (200 when
// accepted).
func decodeStatus(decode func([]byte, int) (*request, error), body []byte, distinguish bool) (*request, *Entry, int) {
	q, err := decode(body, decodeMaxBatch)
	var e *Entry
	if err == nil {
		e, err = q.validate(getDecodeModel, decodeMaxBatch, distinguish)
	}
	if err != nil {
		return nil, nil, err.(*httpError).code
	}
	return q, e, http.StatusOK
}

func handDecode(body []byte, maxRows int) (*request, error) {
	return new(decoder).request(body, maxRows)
}

// departs reports whether body hits one of the hand-written decoder's
// departures from encoding/json: a top-level value that is not an
// object, a key other than the five exact names, a repeated key, or
// data after the object. The 0/1 bound is not one here: the oracle's
// rows go through the same validation.
func departs(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	tok, err := dec.Token()
	if err != nil {
		return false
	}
	if tok != json.Delim('{') {
		return true
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key, _ := tok.(string)
		switch key {
		case "model", "rows", "hex", "labels", "sigmas":
		default:
			return true
		}
		if seen[key] {
			return true
		}
		seen[key] = true
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return false
		}
	}
	if _, err := dec.Token(); err != nil {
		return false
	}
	return len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
}

// decodeCases are bodies with their classify and distinguish statuses
// against decodeModels and decodeMaxBatch: each documented departure,
// each step of the status precedence, and the edges of JSON's grammar
// the decoder handles itself. They seed FuzzDecodeRequest.
var decodeCases = []struct {
	name                  string
	body                  string
	classify, distinguish int
}{
	{"float rows", `{"model":"m","rows":[[0,1,0,1,0,1,0,1,0,1,1,1]],"labels":[2]}`, 200, 200},
	{"hex rows", `{"model":"m","hex":["a50f","ffff"],"labels":[0,1]}`, 200, 200},
	{"wide rows", `{"model":"w","rows":[[` + strings.Repeat("1,", 69) + `0]],"labels":[1]}`, 200, 200},
	{"wide hex", `{"model":"w","hex":["0123456789abcdef01"],"labels":[1]}`, 200, 200},
	{"keys in any order", `{"labels":[1],"sigmas":2.5,"hex":["0000"],"model":"m"}`, 200, 200},
	{"whitespace", " \t\n{ \"model\" : \"m\" , \"hex\" : [ \"0000\" ] , \"labels\" : [ 0 ] }\r\n", 200, 200},
	{"other spellings of 0 and 1", `{"model":"m","rows":[[1.0,1e0,-0,0.0,10e-1,0E5,1,0,1,0,1,0]],"labels":[0]}`, 200, 200},
	{"nulls", `{"model":"m","rows":[[null,1,0,1,0,1,0,1,0,1,0,1]],"labels":[null],"sigmas":null,"hex":null}`, 200, 200},
	{"null model", `{"model":null,"rows":[[0]]}`, 404, 404},
	{"null row", `{"model":"m","rows":[null]}`, 400, 400},
	{"null hex row", `{"model":"m","hex":[null]}`, 400, 400},
	{"escaped key", `{"mod\u0065l":"m","hex":["0000"],"labels":[1]}`, 200, 200},
	{"escaped model and hex", `{"model":"\u006d","hex":["\u0030000"],"labels":[1]}`, 200, 200},
	{"non-ASCII model", `{"model":"mé","hex":["0000"]}`, 404, 404},
	{"invalid UTF-8 model", "{\"model\":\"m\xff\",\"hex\":[\"0000\"]}", 404, 404},
	{"empty labels on classify", `{"model":"m","hex":["0000"],"labels":[]}`, 200, 400},
	{"sigmas", `{"model":"m","hex":["0000"],"labels":[1],"sigmas":-1e300}`, 200, 200},

	// Departures from encoding/json.
	{"not an object", `[{"model":"m","hex":["0000"]}]`, 400, 400},
	{"top-level null", `null`, 400, 400},
	{"unknown key", `{"model":"m","hex":["0000"],"labels":[1],"extra":1}`, 400, 400},
	{"case-folded key", `{"Model":"m","hex":["0000"],"labels":[1]}`, 400, 400},
	{"repeated key", `{"model":"x","model":"m","hex":["0000"],"labels":[1]}`, 400, 400},
	{"repeated escaped key", `{"model":"m","mod\u0065l":"m","hex":["0000"],"labels":[1]}`, 400, 400},
	{"data after the object", `{"model":"m","hex":["0000"],"labels":[1]} {}`, 400, 400},
	{"value 0.5", `{"model":"m","rows":[[0.5,1,0,1,0,1,0,1,0,1,0,1]],"labels":[1]}`, 400, 400},
	{"value 2", `{"model":"m","rows":[[2,1,0,1,0,1,0,1,0,1,0,1]],"labels":[1]}`, 400, 400},

	// Syntax and type errors, which precede every model check.
	{"empty body", ``, 400, 400},
	{"truncated", `{"model":"m","rows":[[0,1`, 400, 400},
	{"trailing comma", `{"model":"m","hex":["0000"],}`, 400, 400},
	{"leading zero", `{"model":"m","rows":[[01]]}`, 400, 400},
	{"bare minus", `{"model":"m","rows":[[-]]}`, 400, 400},
	{"float overflow", `{"model":"ghost","rows":[[1e400]]}`, 400, 400},
	{"label overflow", `{"model":"ghost","hex":["0000"],"labels":[9223372036854775808]}`, 400, 400},
	{"label 2^32", `{"model":"m","hex":["0000"],"labels":[` + bigLabel + `]}`, bigLabelClassify, 400},
	{"label 1.0", `{"model":"m","hex":["0000"],"labels":[1.0]}`, 400, 400},
	{"string value", `{"model":"m","rows":[["1"]]}`, 400, 400},
	{"nested row", `{"model":"m","rows":[[[0]]]}`, 400, 400},
	{"hex not a list", `{"model":"m","hex":"0000"}`, 400, 400},
	{"model not a string", `{"model":7,"hex":["0000"]}`, 400, 400},
	{"sigmas string", `{"model":"m","hex":["0000"],"labels":[1],"sigmas":"3"}`, 400, 400},
	{"bad escape", `{"model":"m\q","hex":["0000"]}`, 400, 400},
	{"control character", "{\"model\":\"m\n\",\"hex\":[\"0000\"]}", 400, 400},
	{"true", `{"model":"m","rows":[[true]]}`, 400, 400},
	{"type error past the row cap", `{"model":"ghost","rows":[[0],[0],[0],[0],[0],["x"]]}`, 400, 400},

	// Model, then row presence, then the row cap, then each row.
	{"unknown model", `{"model":"ghost","rows":[[0.5]]}`, 404, 404},
	{"no rows", `{"model":"m"}`, 400, 400},
	{"empty rows", `{"model":"m","rows":[],"hex":[]}`, 400, 400},
	{"rows and hex", `{"model":"m","rows":[[0]],"hex":["0000"]}`, 400, 400},
	{"empty rows then hex", `{"model":"m","rows":[],"hex":["0000"],"labels":[1]}`, 200, 200},
	{"over the row cap", `{"model":"m","hex":["00","zz","0000","0000","0000"]}`, 413, 413},
	{"ragged row", `{"model":"m","rows":[[0,1]]}`, 400, 400},
	{"ragged later row", `{"model":"m","hex":["0000","000"]}`, 400, 400},
	{"bad hex", `{"model":"m","hex":["zz00"]}`, 400, 400},
	{"odd hex", `{"model":"m","hex":["000"]}`, 400, 400},
	{"short hex", `{"model":"m","hex":["00"]}`, 400, 400},

	// Labels, on /v1/distinguish only.
	{"label count", `{"model":"m","hex":["0000","0000"],"labels":[1]}`, 200, 400},
	{"label range", `{"model":"m","hex":["0000"],"labels":[3]}`, 200, 400},
	{"negative label", `{"model":"m","hex":["0000"],"labels":[-1]}`, 200, 400},
}

func TestDecodeRequestCases(t *testing.T) {
	for _, c := range decodeCases {
		for _, dist := range []bool{false, true} {
			want := c.classify
			if dist {
				want = c.distinguish
			}
			if _, _, got := decodeStatus(handDecode, []byte(c.body), dist); got != want {
				t.Errorf("%s (distinguish %v): status %d, want %d", c.name, dist, got, want)
			}
		}
	}
}

// TestDecodeRequestPacks checks the packed rows, labels and sigmas of
// accepted bodies bit by bit.
func TestDecodeRequestPacks(t *testing.T) {
	q, e, code := decodeStatus(handDecode,
		[]byte(`{"model":"m","hex":["a5ff","0f00"],"labels":[2,0],"sigmas":4.5}`), true)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// Bytes 0xa5 0xff, then 0x0f 0x00, least significant first; 12 of
	// each row's bits are features.
	if e.Name != "m" || q.x.Rows != 2 || q.x.Cols != 12 || !slices.Equal(q.x.Data, []uint64{0xffa5, 0x0f}) {
		t.Fatalf("hex rows packed as %+v", q.x)
	}
	if !slices.Equal(q.labels, []int{2, 0}) || q.sigmas != 4.5 {
		t.Fatalf("labels %v sigmas %v", q.labels, q.sigmas)
	}
	row := make([]string, 70)
	for i := range row {
		row[i] = fmt.Sprint(i % 3 / 2) // 0,0,1,0,0,1,…
	}
	q, _, code = decodeStatus(handDecode, []byte(`{"model":"w","rows":[[`+strings.Join(row, ",")+`]]}`), false)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var want [2]uint64
	for i := 2; i < 70; i += 3 {
		want[i/64] |= 1 << (i % 64)
	}
	if !slices.Equal(q.x.Data, want[:]) {
		t.Fatalf("float row packed as %x, want %x", q.x.Data, want)
	}
}

// TestReadRequestBodyLimit: a body over the cap is a 413 even when its
// JSON value ends well before the cap.
func TestReadRequestBodyLimit(t *testing.T) {
	body := `{"model":"m","hex":["0000"]}` + strings.Repeat(" ", maxBody)
	r, err := http.NewRequest(http.MethodPost, "/v1/classify", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, err = readRequest(nil, r, decodeMaxBatch)
	if he, ok := err.(*httpError); !ok || he.code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %v, want a 413", err)
	}
}

// FuzzDecodeRequest runs each body through the hand-written decoder
// and through the encoding/json oracle, both followed by the shared
// validation: the statuses must agree, and an accepted body must give
// the same model, packed rows, labels and sigmas. A body hitting one of
// the decoder's documented departures must instead get a 400.
func FuzzDecodeRequest(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	// Bodies shaped as perfbench's: json.Marshal of float rows, and of
	// hex rows with labels, around the row cap and at two widths.
	for _, model := range []string{"m", "g"} {
		width := decodeModels[model].FeatureLen()
		for _, n := range []int{1, decodeMaxBatch, decodeMaxBatch + 1} {
			rows := make([][]float64, n)
			hex := make([]string, n)
			labels := make([]int, n)
			for i := range rows {
				rows[i] = make([]float64, width)
				for j := i % 3; j < width; j += 3 {
					rows[i][j] = 1
				}
				hex[i] = bits.Hex(bits.FloatsToBytes(append(rows[i], make([]float64, -width&7)...)))
				labels[i] = i % 2
			}
			for _, cr := range []classifyRequest{{Model: model, Rows: rows}, {Model: model, Hex: hex, Labels: labels}} {
				body, err := json.Marshal(cr)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(body)
			}
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, dist := range []bool{false, true} {
			got, gotEntry, gotCode := decodeStatus(handDecode, body, dist)
			if departs(body) {
				if gotCode != http.StatusBadRequest {
					t.Fatalf("departing body %q (distinguish %v): status %d, want 400", body, dist, gotCode)
				}
				continue
			}
			want, wantEntry, wantCode := decodeStatus(oracleRequest, body, dist)
			if gotCode != wantCode {
				t.Fatalf("body %q (distinguish %v): status %d, encoding/json gives %d", body, dist, gotCode, wantCode)
			}
			if gotCode != http.StatusOK {
				continue
			}
			if gotEntry != wantEntry || got.x.Rows != want.x.Rows || got.x.Cols != want.x.Cols ||
				!slices.Equal(got.x.Data, want.x.Data) || !slices.Equal(got.labels, want.labels) || got.sigmas != want.sigmas {
				t.Fatalf("body %q (distinguish %v): decoded %+v (model %s), encoding/json gives %+v (model %s)",
					body, dist, got, gotEntry.Name, want, wantEntry.Name)
			}
		}
	})
}

// BenchmarkDecodeRequest measures the request codec (decode and
// validate) on perfbench-shaped bodies: 128-feature float rows as
// serve-classify posts them and 128-bit hex rows with labels as
// serve-distinguish does, at 1 and 256 rows, so allocs/op can be seen
// not to grow with the row count. The encoding_json runs decode the
// same bodies with encoding/json alone, for reference.
func BenchmarkDecodeRequest(b *testing.B) {
	const width = 128
	model := &Entry{Name: "m", Dist: &core.Distinguisher{Scenario: widthScenario{width: width, classes: 2}}}
	get := func(string) (*Entry, bool) { return model, true }
	for _, kind := range []string{"float", "hex"} {
		for _, n := range []int{1, 64, 256} {
			if kind == "hex" && n == 64 {
				continue
			}
			cr := classifyRequest{Model: "m"}
			for i := 0; i < n; i++ {
				row := make([]float64, width)
				for j := range row {
					row[j] = float64((i*7 + j*j) >> 2 & 1)
				}
				if kind == "float" {
					cr.Rows = append(cr.Rows, row)
				} else {
					cr.Hex = append(cr.Hex, bits.Hex(bits.FloatsToBytes(row)))
					cr.Labels = append(cr.Labels, i%2)
				}
			}
			body, err := json.Marshal(cr)
			if err != nil {
				b.Fatal(err)
			}
			dist := kind == "hex"
			b.Run(fmt.Sprintf("%s/rows=%d/decoder", kind, n), func(b *testing.B) {
				d := new(decoder)
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for b.Loop() {
					q, err := d.request(body, 256)
					if err == nil {
						_, err = q.validate(get, 256, dist)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/rows=%d/encoding_json", kind, n), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for b.Loop() {
					var cr classifyRequest
					if err := json.Unmarshal(body, &cr); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
