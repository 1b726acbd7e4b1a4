package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/tensor"
)

// The /v1/infer codec. The wire is JSON and nothing else; what this file
// changes is how often a byte is touched. A request body is read into a
// pooled buffer and scanned once. The scanner takes the canonical shape of
// the envelope — plain ASCII keys, each at most once, a plain model string,
// digit-only seed and timeout, "inputs" as an object of a few flat number
// arrays — and leaves every other construct (escapes, non-ASCII, unknown or
// duplicate keys, null, trailing bytes, anything malformed) to encoding/json
// on the same bytes. What the scanner accepts is therefore a subset of what
// json.Unmarshal into InferRequest accepts, decoded by the same
// strconv.ParseFloat(s, 64); everything else, every rejection and its message
// included, is the standard library's own answer. The reply is appended into
// the same buffer, byte for byte what json.NewEncoder writes.

// maxPooledBuf is the largest buffer (in bytes of body or reply, in elements
// of scratch) an inferBuf takes back to the pool. The rare 13 MB request
// allocates its own and drops it.
const maxPooledBuf = 1 << 20

// maxScannedInputs is how many "inputs" members the scanner takes. It finds a
// repeated name by looking through the ones it has, which is only cheap while
// they are few; no zoo model has more than a handful of inputs, and a body
// with more is encoding/json's, whose map costs the same per member however
// many there are.
const maxScannedInputs = 16

// inferInput is one "inputs" member: vals[off:off+n] of its inferBuf.
type inferInput struct {
	name   string
	off, n int
}

// inferBuf is one request's working memory: the body bytes (reused for the
// reply once the inputs are bound), the decoded envelope, and the explicit
// inputs' values in one scratch slice. It belongs to the handler goroutine
// that took it, from getInferBuf until that handler returns; nothing a worker
// goroutine can reach — input tensors, results — points into it.
type inferBuf struct {
	b         []byte
	model     string
	seed      uint64
	timeoutMs int
	vals      []float64
	inputs    []inferInput
}

var inferBufs = sync.Pool{New: func() any { return new(inferBuf) }}

func getInferBuf() *inferBuf {
	q := inferBufs.Get().(*inferBuf)
	q.reset()
	return q
}

func putInferBuf(q *inferBuf) {
	if cap(q.b) > maxPooledBuf {
		q.b = nil
	}
	if cap(q.vals) > maxPooledBuf {
		q.vals = nil
	}
	if cap(q.inputs) > maxScannedInputs {
		q.inputs = nil
	}
	clear(q.inputs[:cap(q.inputs)]) // the names are the request's, not the pool's
	inferBufs.Put(q)
}

func (q *inferBuf) reset() {
	q.model, q.seed, q.timeoutMs = "", 0, 0
	q.vals, q.inputs = q.vals[:0], q.inputs[:0]
}

// input returns the named explicit input's values.
func (q *inferBuf) input(name string) ([]float64, bool) {
	for _, in := range q.inputs {
		if in.name == name {
			return q.vals[in.off : in.off+in.n], true
		}
	}
	return nil, false
}

// readBody reads the request body, capped at MaxInferBody, into q.b. An
// oversized body fails with http.MaxBytesReader's error (BodyErrStatus: 413).
func (q *inferBuf) readBody(w http.ResponseWriter, r *http.Request) error {
	rd := http.MaxBytesReader(w, r.Body, MaxInferBody)
	b := q.b[:0]
	// Size a poolable buffer from the declared length, plus one byte so that
	// the Read reporting EOF finds room; a larger body grows as it arrives,
	// so a header alone cannot reserve megabytes.
	if n := r.ContentLength; n >= int64(cap(b)) && n < maxPooledBuf {
		b = make([]byte, 0, n+1)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			q.b = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// decode fills the envelope and the explicit inputs from body: by the
// one-pass scanner when it takes the body, by json.Unmarshal if not.
func (q *inferBuf) decode(body []byte) error {
	if scanInfer(body, q) {
		return nil
	}
	q.reset()
	var req InferRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	q.model, q.seed, q.timeoutMs = req.Model, req.Seed, req.TimeoutMs
	for name, data := range req.Inputs {
		q.inputs = append(q.inputs, inferInput{name: name, off: len(q.vals), n: len(data)})
		q.vals = append(q.vals, data...)
	}
	return nil
}

// InferEnvelope returns the two fields of a /v1/infer body that routing
// needs, decoding the body as the handler does: what it refuses here, a
// serving worker would refuse with the same words.
func InferEnvelope(body []byte) (model string, seed uint64, err error) {
	q := getInferBuf()
	defer putInferBuf(q)
	if err := q.decode(body); err != nil {
		return "", 0, err
	}
	return q.model, q.seed, nil
}

// ------------------------------------------------------------------ decode

//np:hotpath
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

//np:hotpath
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// cursor is a position in a body being scanned. Its methods consume what
// they name, or report false and leave the position unspecified.
type cursor struct {
	b []byte
	i int
}

// eat consumes ch, after any whitespace, if it is next.
func (c *cursor) eat(ch byte) bool {
	c.i = skipSpace(c.b, c.i)
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// plainString consumes a string that is its own decoding: printable ASCII
// with no backslash.
func (c *cursor) plainString() ([]byte, bool) {
	if !c.eat('"') {
		return nil, false
	}
	for start := c.i; c.i < len(c.b); c.i++ {
		switch ch := c.b[c.i]; {
		case ch == '"':
			c.i++
			return c.b[start : c.i-1], true
		case ch < 0x20 || ch >= 0x80 || ch == '\\':
			return nil, false
		}
	}
	return nil, false
}

// digits consumes the unsigned integer 0|[1-9][0-9]* at the cursor, of at
// most max digits. Whether what follows may follow is the caller's to check:
// members takes only ',' or '}' after a value, so "1.5" and "1e3" end there.
func (c *cursor) digits(max int) (v uint64, ok bool) {
	start := c.i
	c.i = skipDigits(c.b, c.i)
	for _, d := range c.b[start:c.i] {
		v = v*10 + uint64(d-'0')
	}
	n := c.i - start
	return v, 0 < n && n <= max && (n == 1 || c.b[start] != '0')
}

// members walks an object of plain keys, calling member with the cursor on
// the first byte of each value; member consumes the value.
func (c *cursor) members(member func(key []byte) bool) bool {
	if !c.eat('{') {
		return false
	}
	if c.eat('}') {
		return true
	}
	for {
		key, ok := c.plainString()
		if !ok || !c.eat(':') {
			return false
		}
		c.i = skipSpace(c.b, c.i)
		if !member(key) {
			return false
		}
		if c.eat('}') {
			return true
		}
		if !c.eat(',') {
			return false
		}
	}
}

// inferFields are InferRequest's JSON names; a field's bit in the scanner's
// seen mask is 1 << its index.
var inferFields = [...]string{"model", "seed", "inputs", "timeout_ms"}

// inferField maps an ASCII object key to its field index the way
// encoding/json does — exact match, else ASCII case folding — or -1. (A key
// with a non-ASCII byte, which could fold onto 's' or 'k', never gets here.)
func inferField(key []byte) int {
next:
	for f, name := range inferFields {
		if len(key) != len(name) {
			continue
		}
		for i, ch := range key {
			if 'A' <= ch && ch <= 'Z' {
				ch += 'a' - 'A'
			}
			if ch != name[i] {
				continue next
			}
		}
		return f
	}
	return -1
}

// scanInfer is the one-pass decoder. It reports false for a body outside the
// canonical shape, with q half filled; the caller then gives the same bytes
// to encoding/json.
func scanInfer(b []byte, q *inferBuf) bool {
	c := cursor{b: b}
	seen := 0
	ok := c.members(func(key []byte) (ok bool) {
		f := inferField(key)
		if f < 0 || seen&(1<<f) != 0 {
			return false
		}
		seen |= 1 << f
		switch inferFields[f] {
		case "model":
			var s []byte
			s, ok = c.plainString()
			q.model = string(s)
		case "seed":
			// 19 digits always fit a uint64.
			q.seed, ok = c.digits(19)
		case "timeout_ms":
			// 9 digits always fit an int, a 32-bit one too.
			neg := c.eat('-')
			var v uint64
			v, ok = c.digits(9)
			if q.timeoutMs = int(v); neg {
				q.timeoutMs = -q.timeoutMs
			}
		case "inputs":
			ok = c.inputs(q)
		}
		return ok
	})
	return ok && skipSpace(c.b, c.i) == len(c.b)
}

// inputs consumes the "inputs" object: at most maxScannedInputs distinct
// plain names, each a flat array of numbers.
func (c *cursor) inputs(q *inferBuf) bool {
	return c.members(func(key []byte) (ok bool) {
		if len(q.inputs) == maxScannedInputs {
			return false
		}
		name := string(key)
		if _, dup := q.input(name); dup || !c.eat('[') {
			return false
		}
		off := len(q.vals)
		q.vals, c.i, ok = scanNumbers(c.b, c.i, q.vals)
		q.inputs = append(q.inputs, inferInput{name: name, off: off, n: len(q.vals) - off})
		return ok
	})
}

// scanNumbers appends the elements of a flat number array to dst, from after
// its '[' through its ']'. Each element is checked against the JSON number
// grammar first — strconv.ParseFloat alone also takes "+1", "1.", "0x1p3",
// "Inf" and "1_000" — so the only error left to ParseFloat is a value out of
// float64's range, which encoding/json refuses as well.
//
//np:hotpath
func scanNumbers(b []byte, i int, dst []float64) ([]float64, int, bool) {
	if i = skipSpace(b, i); i < len(b) && b[i] == ']' {
		return dst, i + 1, true
	}
	for {
		start := i
		if i < len(b) && b[i] == '-' {
			i++
		}
		// (0|[1-9]\d*)
		if i < len(b) && b[i] == '0' {
			i++
		} else if end := skipDigits(b, i); end > i {
			i = end
		} else {
			return dst, i, false
		}
		// (\.\d+)?
		if i < len(b) && b[i] == '.' {
			end := skipDigits(b, i+1)
			if end == i+1 {
				return dst, i, false
			}
			i = end
		}
		// ([eE][+-]?\d+)?
		if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
			i++
			if i < len(b) && (b[i] == '+' || b[i] == '-') {
				i++
			}
			end := skipDigits(b, i)
			if end == i {
				return dst, i, false
			}
			i = end
		}
		v, err := strconv.ParseFloat(string(b[start:i]), 64)
		if err != nil {
			return dst, i, false
		}
		dst = append(dst, v) //np:alloc-ok pooled scratch: grows to the largest request seen, then stays
		if i = skipSpace(b, i); i >= len(b) {
			return dst, i, false
		}
		if b[i] == ']' {
			return dst, i + 1, true
		}
		if b[i] != ',' {
			return dst, i, false
		}
		i = skipSpace(b, i+1)
	}
}

// ------------------------------------------------------------------ encode

// appendInferResponse appends the InferResponse for res, newline included,
// exactly as json.NewEncoder(w).Encode would write it — without building the
// InferResponse or a []float64 per output. A NaN or infinite output is an
// error here, before any byte of the reply is on the wire.
func appendInferResponse(b []byte, model string, res *Result, traceID string) ([]byte, error) {
	b = append(b, `{"model":`...)
	b = appendJSONString(b, model)
	if res.Version != "" {
		b = append(b, `,"version":`...)
		b = appendJSONString(b, res.Version)
	}
	b = append(b, `,"outputs":`...)
	if len(res.Outputs) == 0 {
		b = append(b, "null"...) // a nil slice, to encoding/json
	} else {
		sep := byte('[')
		for o, t := range res.Outputs {
			b = append(b, sep)
			sep = ','
			b = append(b, `{"shape":[`...)
			for d, n := range t.Shape {
				if d > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(n), 10)
			}
			b = append(b, `],"dtype":`...)
			b = appendJSONString(b, t.DType.String())
			b = append(b, `,"data":[`...)
			var bad int
			if b, bad = appendJSONFloats(b, t); bad >= 0 {
				return b, fmt.Errorf("serve: %s: output %d[%d] is %v: not representable in JSON", model, o, bad, t.GetF(bad))
			}
			b = append(b, "]}"...)
		}
		b = append(b, ']')
	}
	b = append(b, `,"batch_size":`...)
	b = strconv.AppendInt(b, int64(res.BatchSize), 10)
	for _, f := range [...]struct {
		key string
		val float64
	}{
		{"queue_ms", float64(res.QueueWait) / float64(time.Millisecond)},
		{"wall_ms", float64(res.Wall) / float64(time.Millisecond)},
		{"sim_ms", res.SimTime.Ms()},
	} {
		b = append(append(append(b, `,"`...), f.key...), `":`...)
		var ok bool
		if b, ok = appendJSONFloat(b, f.val); !ok {
			return b, fmt.Errorf("serve: %s: %s is %v: not representable in JSON", model, f.key, f.val)
		}
	}
	if traceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendJSONString(b, traceID)
	}
	return append(b, "}\n"...), nil
}

// appendJSONFloats appends t's elements in the real domain, comma-separated,
// and returns -1 — or the index of the first element that has no JSON form.
//
//np:hotpath
func appendJSONFloats(b []byte, t *tensor.Tensor) ([]byte, int) {
	for i, n := 0, t.Elems(); i < n; i++ {
		if i > 0 {
			b = append(b, ',') //np:alloc-ok pooled reply buffer: grows to the largest reply seen, then stays
		}
		var ok bool
		if b, ok = appendJSONFloat(b, t.GetF(i)); !ok {
			return b, i
		}
	}
	return b, -1
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// digits that round-trip, in exponent form below 1e-6 and from 1e21 up, a
// two-digit exponent's leading zero dropped. NaN and ±Inf have no JSON form.
//
//np:hotpath
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// appendJSONString appends s quoted. A string json would escape anywhere —
// quotes, backslashes, control bytes, non-ASCII, and the <, > and & that its
// Encoder escapes by default — is encoded by json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if ch := s[i]; ch < 0x20 || ch >= 0x7f || ch == '"' || ch == '\\' || ch == '<' || ch == '>' || ch == '&' {
			js, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(b, js...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
