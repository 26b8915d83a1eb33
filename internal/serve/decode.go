package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/nn"
)

// The request codec of /v1/classify and /v1/distinguish. A body is one
// JSON object with at most the keys "model" (string), "rows" (arrays of
// 0/1 numbers) or "hex" (strings packing the feature bits as bits.Hex of
// their little-endian bytes), "labels" (ints) and "sigmas" (a number).
// The hand-written decoder below reads that fixed shape in one pass and
// packs float and hex rows straight into one nn.BitMatrix, so no row is
// ever held as floats. It decodes what encoding/json decodes into the
// equivalent struct (classifyRequest in the tests, which fuzz the two
// against each other), with these departures, each a 400:
//
//   - the top-level value must be an object;
//   - keys must be exactly the five above: no unknown keys, no
//     case-insensitive matches;
//   - no key may repeat;
//   - nothing but whitespace may follow the object;
//   - a float row value must equal 0 or 1 (checked in validate).

// maxBody bounds request bodies, the same 16 MiB cap the cluster
// router applies. Replicas are directly reachable, so they enforce it
// themselves rather than trusting a router in front.
const maxBody = 16 << 20

// httpError is a rejected request: the status and the message of its
// error body.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// request is a decoded body, before it is checked against a model.
// Row and label counts cover the whole body; rows and labels are kept
// only up to the decoder's row cap, since a body with more rows is
// refused before any of them is read.
type request struct {
	model  string
	sigmas float64
	// nRows and nHex count the elements of "rows" and "hex".
	nRows, nHex int
	// hex reports that x holds hex rows. x holds the rows of the first
	// non-empty row array at the first row's width, up to the row cap
	// or the first row of another width; validate sets its shape.
	hex bool
	x   nn.BitMatrix
	// width is the first row's length (values, or hex digits); ragged
	// is the first kept row of another length (-1: none) and raggedLen
	// that row's length.
	width, ragged, raggedLen int
	// fault is the first kept row holding a value other than 0 or 1 or
	// a bad hex digit (-1: none), and faultMsg says which.
	fault    int
	faultMsg string
	labels   []int // the first min(nLabels, row cap) labels
	nLabels  int
}

// validate checks a decoded request in the order the API documents,
// after the body-level checks decoding made: the model must be loaded
// (404); exactly one of rows and hex must be non-empty (400); at most
// maxBatch rows (413); then each row in turn must have the model's
// width, valid hex and only 0/1 values (400); and on /v1/distinguish
// there must be one label per row, each a class of the model (400). On
// success q.x is the packed input.
func (q *request) validate(get func(string) (*Entry, bool), maxBatch int, distinguish bool) (*Entry, error) {
	entry, ok := get(q.model)
	if !ok {
		return nil, &httpError{http.StatusNotFound, fmt.Sprintf("unknown model %q (GET /models lists loaded models)", q.model)}
	}
	if (q.nRows == 0) == (q.nHex == 0) {
		return nil, badRequest("exactly one of rows or hex must be non-empty")
	}
	n := q.nRows + q.nHex
	if n > maxBatch {
		return nil, &httpError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request has %d rows, max %d per request (split the batch)", n, maxBatch)}
	}
	featLen := entry.FeatureLen()
	wantBytes := (featLen + 7) / 8
	want := featLen
	if q.hex {
		want = 2 * wantBytes
	}
	// The first row of the wrong width: row 0, or else the first row
	// whose width differs from row 0's. A bad value or hex digit in an
	// earlier row is reported first; in the same row, a float row's
	// width is checked before its values and a hex row's digits before
	// its length, as bits.FromHex did.
	bad, badLen := q.ragged, q.raggedLen
	if q.width != want {
		bad, badLen = 0, q.width
	}
	switch {
	case q.fault >= 0 && (bad < 0 || q.fault < bad || q.hex && q.fault == bad):
		return nil, badRequest("%s", q.faultMsg)
	case bad >= 0 && q.hex:
		return nil, badRequest("hex row %d has %d bytes, want %d (%d feature bits)", bad, badLen/2, wantBytes, featLen)
	case bad >= 0:
		return nil, badRequest("row %d has %d features, model %q wants %d", bad, badLen, entry.Name, featLen)
	}
	if distinguish {
		if q.nLabels != n {
			return nil, badRequest("%d labels for %d rows", q.nLabels, n)
		}
		t := entry.Classes()
		for i, l := range q.labels {
			if l < 0 || l >= t {
				return nil, badRequest("label %d is %d, model %q has %d classes", i, l, entry.Name, t)
			}
		}
	}
	// A hex row's last byte may carry bits past the features, which
	// every nn.BitMatrix consumer ignores.
	q.x.Rows, q.x.Cols = n, featLen
	return entry, nil
}

// readBody reads the request body into buf, at most maxBody bytes: a
// longer body is a 413, any other read failure a 400.
func readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) error {
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooBig):
		return &httpError{http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
	default:
		return badRequest("reading request body: %v", err)
	}
}

// writeErr writes err's response: its status if it is an *httpError, a
// 500 otherwise.
func writeErr(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		writeError(w, he.code, "%s", he.msg)
		return
	}
	writeError(w, http.StatusInternalServerError, "%v", err)
}

// ReadRequest reads and decodes a /v1/classify or /v1/distinguish body
// as a replica does before it looks up the model, and returns the body
// and the model it names. A body that a replica would refuse at that
// stage gets the replica's 413 or 400 response here, and ok is false.
// The rows are checked for syntax and type only: their width and
// values depend on the model.
func ReadRequest(w http.ResponseWriter, r *http.Request) (body []byte, model string, ok bool) {
	var buf bytes.Buffer
	var d decoder
	err := readBody(w, r, &buf)
	if err == nil {
		err = d.decode(buf.Bytes(), 0)
	}
	if err != nil {
		writeErr(w, err)
		return nil, "", false
	}
	return buf.Bytes(), d.q.model, true
}

// decoder is one body's parse state. The body buffer and the row and
// label scratch are reused across requests through decoders; decode
// copies what the request keeps out of them.
type decoder struct {
	body    bytes.Buffer
	buf     []byte
	pos     int
	maxRows int
	words   []uint64
	labels  []int
	q       request
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// maxPooledBody is the largest body buffer returned to decoders, so one
// huge request does not pin its buffer for the pool's lifetime.
const maxPooledBody = 1 << 20

// readRequest reads and decodes r's body with a pooled decoder, keeping
// at most maxRows rows and labels.
func readRequest(w http.ResponseWriter, r *http.Request, maxRows int) (*request, error) {
	d := decoders.Get().(*decoder)
	defer func() {
		if d.body.Cap() <= maxPooledBody {
			d.body.Reset()
			decoders.Put(d)
		}
	}()
	if err := readBody(w, r, &d.body); err != nil {
		return nil, err
	}
	return d.request(d.body.Bytes(), maxRows)
}

// request decodes body, keeping at most maxRows rows and labels, and
// returns the request with its rows and labels copied out of d.
func (d *decoder) request(body []byte, maxRows int) (*request, error) {
	if err := d.decode(body, maxRows); err != nil {
		return nil, err
	}
	q := d.q
	q.x.Data = append([]uint64(nil), d.words...)
	if len(d.labels) > 0 {
		q.labels = append([]int(nil), d.labels...)
	}
	return &q, nil
}

// Key bits, for the repeated-key check.
const (
	keyModel = 1 << iota
	keyRows
	keyHex
	keyLabels
	keySigmas
)

// decode parses body into d.q, keeping at most maxRows rows (packed
// into d.words) and labels (in d.labels). d.q's rows and labels are
// left unset: request copies them out.
func (d *decoder) decode(body []byte, maxRows int) error {
	d.buf, d.pos, d.maxRows = body, 0, maxRows
	d.words, d.labels = d.words[:0], d.labels[:0]
	d.q = request{ragged: -1, fault: -1}
	if err := d.object(); err != nil {
		return badRequest("invalid JSON body: %v", err)
	}
	return nil
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: "+format, append([]any{d.pos}, args...)...)
}

// skip advances past JSON whitespace.
func (d *decoder) skip() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte (0 at the end).
func (d *decoder) peek() byte {
	d.skip()
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// expect consumes c after optional whitespace.
func (d *decoder) expect(c byte) error {
	if d.peek() != c {
		return d.unexpected(fmt.Sprintf("%q", c))
	}
	d.pos++
	return nil
}

func (d *decoder) unexpected(want string) error {
	if d.pos >= len(d.buf) {
		return d.errorf("unexpected end of input, want %s", want)
	}
	return d.errorf("unexpected %q, want %s", d.buf[d.pos], want)
}

// null consumes a null literal if one is next.
func (d *decoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	if !bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
		return false, d.unexpected("null")
	}
	d.pos += 4
	return true, nil
}

// list parses the elements of an array, or the members of an object,
// whose opening byte has been consumed: elem parses each, up to close.
func (d *decoder) list(close byte, elem func() error) error {
	if d.peek() == close {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if d.peek() == close {
			d.pos++
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

// object parses the top-level object and checks that only whitespace
// follows it.
func (d *decoder) object() error {
	if d.peek() != '{' {
		return d.unexpected("the request object")
	}
	d.pos++
	seen := 0
	err := d.list('}', func() error {
		key, err := d.str()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		bit, err := d.member(key)
		if err != nil {
			return err
		}
		if seen&bit != 0 {
			return fmt.Errorf("key %q repeated", key)
		}
		seen |= bit
		return nil
	})
	if err != nil {
		return err
	}
	if d.skip(); d.pos != len(d.buf) {
		return d.errorf("data after the request object")
	}
	return nil
}

// member parses the value of key and returns the key's bit.
func (d *decoder) member(key []byte) (int, error) {
	switch string(key) {
	case "model":
		if null, err := d.null(); null || err != nil {
			return keyModel, err
		}
		s, err := d.str()
		d.q.model = string(s)
		return keyModel, err
	case "rows":
		return keyRows, d.rows(false)
	case "hex":
		return keyHex, d.rows(true)
	case "labels":
		return keyLabels, d.labelArray()
	case "sigmas":
		if null, err := d.null(); null || err != nil {
			return keySigmas, err
		}
		lit, err := d.number()
		if err != nil {
			return keySigmas, err
		}
		if d.q.sigmas, err = strconv.ParseFloat(string(lit), 64); err != nil {
			return keySigmas, fmt.Errorf("sigmas %s is not a float64", lit)
		}
		return keySigmas, nil
	}
	return 0, fmt.Errorf("unknown key %q (keys are model, rows, hex, labels, sigmas)", key)
}

// str parses a string and returns its unescaped bytes. A plain-ASCII
// string is returned as a view of the body; one holding an escape or a
// non-ASCII byte is unescaped by encoding/json, so both decoders agree
// on escapes and invalid UTF-8.
func (d *decoder) str() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.unexpected("a string")
	}
	start := d.pos
	d.pos++
	plain := true
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		switch {
		case c == '"':
			d.pos++
			if plain {
				return d.buf[start+1 : d.pos-1], nil
			}
			var s string
			if err := json.Unmarshal(d.buf[start:d.pos], &s); err != nil {
				return nil, err
			}
			return []byte(s), nil
		case c < 0x20:
			return nil, d.errorf("control character %q in string", c)
		case c == '\\':
			plain = false
			d.pos++ // the escaped byte; encoding/json checks the escape
		case c >= 0x80:
			plain = false
		}
		d.pos++
	}
	return nil, d.errorf("unterminated string")
}

// number scans a number literal in JSON's grammar.
func (d *decoder) number() ([]byte, error) {
	b, start := d.buf, d.pos
	i := start
	digits := func() bool {
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		digits()
	default:
		d.pos = i
		return nil, d.unexpected("a number")
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			d.pos = i
			return nil, d.unexpected("a digit")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			return nil, d.unexpected("a digit")
		}
	}
	d.pos = i
	return b[start:i], nil
}

// rows parses the "rows" (hex false) or "hex" array. It packs the rows
// only if no earlier row array had any: a body with both is refused
// before its rows are read.
func (d *decoder) rows(hex bool) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	if err := d.expect('['); err != nil {
		return err
	}
	pack := d.maxRows > 0 && d.q.nRows+d.q.nHex == 0
	if pack {
		d.q.hex = hex
	}
	n := 0
	err := d.list(']', func() error {
		keep := pack && n < d.maxRows && d.q.ragged < 0
		n++
		if hex {
			return d.hexRow(n-1, keep)
		}
		return d.floatRow(n-1, keep)
	})
	if err != nil {
		return err
	}
	if hex {
		d.q.nHex = n
	} else {
		d.q.nRows = n
	}
	return nil
}

// endRow records row k's length n against the first row's, dropping
// the words from start on (and packing no further rows) at the first
// row of another length.
func (d *decoder) endRow(k, n, start int) {
	switch {
	case k == 0:
		d.q.width = n
	case n != d.q.width:
		d.q.ragged, d.q.raggedLen = k, n
		d.words = d.words[:start]
	}
}

// fault records the first kept row holding a bad value.
func (d *decoder) fault(k int, format string, args ...any) {
	if d.q.fault < 0 {
		d.q.fault, d.q.faultMsg = k, fmt.Sprintf(format, args...)
	}
}

// floatRow parses row k of "rows": null (an empty row) or an array of
// numbers and nulls (0). When keep is set its values are packed into
// d.words; a later row longer than the first is packed only up to the
// first's width. Its loop is written out rather than run through list,
// since it runs once per feature.
func (d *decoder) floatRow(k int, keep bool) error {
	if null, err := d.null(); null || err != nil {
		if keep {
			d.endRow(k, 0, len(d.words))
		}
		return err
	}
	if err := d.expect('['); err != nil {
		return err
	}
	start := len(d.words)
	limit := -1 // values packed: all of row 0's, at most width of later rows'
	if keep {
		limit = d.q.width
		if k == 0 {
			limit = len(d.buf)
		}
	}
	var cur uint64
	n := 0
	if d.peek() == ']' {
		d.pos++
	} else {
		for {
			var bit uint64
			b := d.buf
			if i := d.pos; i+1 < len(b) && (b[i] == '0' || b[i] == '1') && (b[i+1] == ',' || b[i+1] == ']') {
				bit = uint64(b[i] - '0')
				d.pos++
			} else if err := d.slowValue(k, n, keep, &bit); err != nil {
				return err
			}
			if n < limit {
				cur |= bit << (n & 63)
				if n&63 == 63 {
					d.words = append(d.words, cur)
					cur = 0
				}
			}
			n++
			if c := d.peek(); c == ',' {
				d.pos++
			} else if c == ']' {
				d.pos++
				break
			} else {
				return d.unexpected("',' or ']'")
			}
		}
	}
	if keep {
		if m := min(n, limit); m&63 != 0 {
			d.words = append(d.words, cur)
		}
		d.endRow(k, n, start)
	}
	return nil
}

// slowValue parses a row value that is not a bare 0 or 1 before a
// delimiter: null (0), or any number, which must parse as a float64
// (else the body is refused, as encoding/json refuses it) and, in a
// kept row, equal 0 or 1.
func (d *decoder) slowValue(k, j int, keep bool, bit *uint64) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("row %d value %d: %s is not a float64", k, j, lit)
	}
	switch {
	case v == 1:
		*bit = 1
	case v != 0 && keep:
		d.fault(k, "row %d value %d is %s, want 0 or 1", k, j, lit)
	}
	return nil
}

// hexRow parses row k of "hex": null (an empty row) or a string. When
// keep is set and the row has the first row's length, its digit pairs
// are decoded as bits.FromHex decodes them and packed as bits.PackBytes
// packs the bytes, straight into d.words.
func (d *decoder) hexRow(k int, keep bool) error {
	var s []byte
	if null, err := d.null(); err != nil {
		return err
	} else if !null {
		if s, err = d.str(); err != nil {
			return err
		}
	}
	if !keep {
		return nil
	}
	start := len(d.words)
	if k > 0 && len(s) != d.q.width {
		d.endRow(k, len(s), start)
		return nil
	}
	if len(s)%2 != 0 {
		d.fault(k, "hex row %d: odd-length hex string", k)
	}
	nb := len(s) / 2
	var cur uint64
	for i := 0; i < nb; i++ {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			d.fault(k, "hex row %d: invalid hex character", k)
		}
		cur |= uint64(hi<<4|lo) << (8 * (i & 7))
		if i&7 == 7 {
			d.words = append(d.words, cur)
			cur = 0
		}
	}
	if nb&7 != 0 {
		d.words = append(d.words, cur)
	}
	d.endRow(k, len(s), start)
	return nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// labelArray parses "labels": null or an array of ints and nulls (0),
// keeping the first maxRows.
func (d *decoder) labelArray() error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	if err := d.expect('['); err != nil {
		return err
	}
	n := 0
	err := d.list(']', func() error {
		l := 0
		if null, err := d.null(); err != nil {
			return err
		} else if !null {
			lit, err := d.number()
			if err != nil {
				return err
			}
			v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
			if err != nil {
				return fmt.Errorf("label %d: %s is not an int", n, lit)
			}
			l = int(v)
		}
		if n < d.maxRows {
			d.labels = append(d.labels, l)
		}
		n++
		return nil
	})
	if err != nil {
		return err
	}
	d.q.nLabels = n
	return nil
}
