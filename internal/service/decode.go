package service

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// ColorBody is a decoded POST /color body: the ColorRequest fields,
// with the inline matrix held as the one buffer DecodeColorRequest
// unescaped it into. The cache key, the header peek and the
// MatrixMarket parser all read that buffer; none of them copies it
// into a string first.
type ColorBody struct {
	// ColorRequest carries every field but the matrix: its Matrix
	// string is always empty (ColorBody.Matrix shadows it).
	ColorRequest
	// Matrix is the unescaped inline MatrixMarket document; empty when
	// the request names a preset (or carries "matrix": "").
	Matrix []byte
}

// CacheKey is the graph-cache key of a decoded body, the same value
// CacheKey gives for the equivalent ColorRequest.
func (b *ColorBody) CacheKey() string { return graphKey(b.Matrix, b.Preset, b.Scale) }

// DecodeColorRequest decodes a POST /color body. It accepts exactly the
// bodies json.Unmarshal accepts into a ColorRequest and yields the same
// field values; a rejection's error is "bad JSON: " followed by
// json.Unmarshal's own message.
//
// A body in the common shape — one flat object whose keys are
// ColorRequest's JSON names spelled exactly, each at most once, with
// printable-ASCII strings that use only the short escapes (\" \\ \/ \b
// \f \n \r \t), integers for threads and timeout_ms, and a JSON number
// for scale — is decoded in a single pass: the matrix string is
// validated and unescaped once, straight into ColorBody.Matrix. Any
// other body (a \u escape, a non-ASCII byte, a case-folded, duplicate
// or unknown key, null, a number json would refuse, malformed input)
// is decoded from the untouched bytes by json.Unmarshal, so every
// subtlety of encoding/json — case folding, last duplicate wins, U+FFFD
// for invalid UTF-8, its error texts — stays its own.
func DecodeColorRequest(raw []byte) (ColorBody, error) {
	if b, ok := decodeColorFast(raw); ok {
		return b, nil
	}
	var req ColorRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return ColorBody{}, fmt.Errorf("bad JSON: %v", err)
	}
	return colorBody(req), nil
}

// colorBody moves req's matrix string into a ColorBody's buffer.
func colorBody(req ColorRequest) ColorBody {
	b := ColorBody{ColorRequest: req}
	if req.Matrix != "" {
		b.Matrix = []byte(req.Matrix)
		b.ColorRequest.Matrix = ""
	}
	return b
}

// Bits of the fast path's seen-key set: a repeated key sends the body
// to json.Unmarshal, which owns the last-wins rule.
const (
	seenMatrix = 1 << iota
	seenPreset
	seenScale
	seenMode
	seenAlgorithm
	seenThreads
	seenBalance
	seenTimeout
)

// decodeColorFast is DecodeColorRequest's single pass. ok is false
// whenever the body leaves the common shape; b is then meaningless and
// raw has not been written to.
func decodeColorFast(raw []byte) (b ColorBody, ok bool) {
	d := fastDecoder{b: raw}
	d.skipSpace()
	if !d.eat('{') {
		return b, false
	}
	d.skipSpace()
	if !d.eat('}') {
		var seen uint8
		for {
			d.skipSpace()
			key, ok := d.key()
			if !ok {
				return b, false
			}
			d.skipSpace()
			if !d.eat(':') {
				return b, false
			}
			d.skipSpace()
			var bit uint8
			switch string(key) {
			case "matrix":
				bit = seenMatrix
				b.Matrix, ok = d.matrix()
			case "preset":
				bit = seenPreset
				b.Preset, ok = d.str()
			case "scale":
				bit = seenScale
				b.Scale, ok = d.float()
			case "mode":
				bit = seenMode
				b.Mode, ok = d.str()
			case "algorithm":
				bit = seenAlgorithm
				b.Algorithm, ok = d.str()
			case "threads":
				bit = seenThreads
				var n int64
				n, ok = d.int()
				b.Threads = int(n)
				ok = ok && int64(b.Threads) == n // json's overflow check on 32-bit ints
			case "balance":
				bit = seenBalance
				b.Balance, ok = d.str()
			case "timeout_ms":
				bit = seenTimeout
				b.TimeoutMS, ok = d.int()
			}
			if !ok || bit == 0 || seen&bit != 0 {
				return b, false
			}
			seen |= bit
			d.skipSpace()
			if d.eat(',') {
				continue
			}
			if !d.eat('}') {
				return b, false
			}
			break
		}
	}
	d.skipSpace()
	return b, d.i == len(d.b)
}

// fastDecoder is a cursor over a request body. Its methods consume one
// token in the fast path's subset of JSON, reporting false (cursor
// position then unspecified) for anything outside it.
type fastDecoder struct {
	b []byte
	i int
}

func (d *fastDecoder) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *fastDecoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// key returns an object key's bytes. Keys carry no escapes in the
// common shape; one that does is not a known key spelled exactly.
func (d *fastDecoder) key() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c == '"' {
			d.i++
			return d.b[start : d.i-1], true
		}
		if plain[c] == 0 {
			return nil, false
		}
		d.i++
	}
	return nil, false
}

// plain marks the bytes a fast-path string may hold unescaped:
// printable ASCII other than the quote and the backslash.
var plain = func() (t [256]uint8) {
	for c := 0x20; c < 0x80; c++ {
		if c != '"' && c != '\\' {
			t[c] = 1
		}
	}
	return t
}()

// unescape maps the second byte of a short escape to the byte it
// stands for; 0 means the escape is outside the fast path (\u, or
// invalid JSON).
var unescape = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// appendString appends the unescaped contents of the JSON string at
// the cursor to dst.
func (d *fastDecoder) appendString(dst []byte) ([]byte, bool) {
	if !d.eat('"') {
		return dst, false
	}
	b := d.b
	for i := d.i; i < len(b); i++ {
		c := b[i]
		if plain[c] == 0 {
			switch {
			case c == '"':
				d.i = i + 1
				return dst, true
			case c == '\\' && i+1 < len(b) && unescape[b[i+1]] != 0:
				i++
				c = unescape[b[i]]
			default:
				return dst, false // \u, an invalid escape, a control or non-ASCII byte
			}
		}
		dst = append(dst, c)
	}
	return dst, false
}

// matrix decodes the matrix string into a buffer of its own, sized to
// the rest of the body so that unescaping (which only shrinks) never
// grows it. "" decodes to nil without a buffer.
func (d *fastDecoder) matrix() ([]byte, bool) {
	if d.i+1 >= len(d.b) || d.b[d.i] != '"' {
		return nil, false
	}
	if d.b[d.i+1] == '"' {
		d.i += 2
		return nil, true
	}
	return d.appendString(make([]byte, 0, len(d.b)-d.i))
}

// str decodes a short string field. An escape-free value is one string
// conversion of the body's bytes, like encoding/json's own.
func (d *fastDecoder) str() (string, bool) {
	start := d.i + 1
	if !d.eat('"') {
		return "", false
	}
	for d.i < len(d.b) && plain[d.b[d.i]] != 0 {
		d.i++
	}
	if d.eat('"') {
		return string(d.b[start : d.i-1]), true
	}
	d.i = start - 1
	s, ok := d.appendString(nil)
	return string(s), ok
}

// number returns the JSON number literal at the cursor and whether it
// is an integer (no fraction, no exponent).
func (d *fastDecoder) number() (lit []byte, integer, ok bool) {
	start := d.i
	d.eat('-')
	switch {
	case d.eat('0'):
	case d.i < len(d.b) && d.b[d.i] >= '1' && d.b[d.i] <= '9':
		d.digits()
	default:
		return nil, false, false
	}
	integer = true
	if d.eat('.') {
		integer = false
		if !d.digits() {
			return nil, false, false
		}
	}
	if d.eat('e') || d.eat('E') {
		integer = false
		if !d.eat('+') {
			d.eat('-')
		}
		if !d.digits() {
			return nil, false, false
		}
	}
	return d.b[start:d.i], integer, true
}

// digits consumes a run of decimal digits, reporting whether there was
// at least one.
func (d *fastDecoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// int decodes an integer field. Literals of more than 18 digits (which
// might overflow) and non-integers, which json rejects for an integer
// field, leave the fast path.
func (d *fastDecoder) int() (int64, bool) {
	lit, integer, ok := d.number()
	if !ok || !integer {
		return 0, false
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range lit {
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// float decodes a float64 field with strconv.ParseFloat, as json does;
// an out-of-range literal (which json rejects) leaves the fast path.
func (d *fastDecoder) float() (float64, bool) {
	lit, _, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// readBody reads a request body of at most limit bytes into one
// buffer. A Content-Length past limit is too large before anything is
// read: such a body either overruns the cap or ends short of its
// header. One in (0, limit] sizes the buffer up front, with one spare
// byte so the read that meets EOF needs no grow. An unknown length
// (chunked) starts small and doubles, and the last grow goes straight
// to limit+1, so even a body that overruns the cap costs about twice
// the cap, not the geometric tail io.ReadAll would add. The header
// never bounds the read: the LimitedReader and the buffer's capacity
// do, and tooLarge reports a body past limit whatever the header said.
func readBody(body io.Reader, contentLength, limit int64) (raw []byte, tooLarge bool, err error) {
	if contentLength > limit {
		return nil, true, nil
	}
	size := int64(512)
	if contentLength > 0 {
		size = contentLength + 1
	}
	if size > limit+1 {
		size = limit + 1
	}
	raw = make([]byte, 0, size)
	lr := io.LimitedReader{R: body, N: limit + 1}
	for int64(len(raw)) <= limit {
		if len(raw) == cap(raw) {
			next := 2 * int64(cap(raw))
			if next > limit/2 {
				next = limit + 1 // the last grow: skip a size just short of the cap
			}
			raw = append(make([]byte, 0, next), raw...)
		}
		n, err := lr.Read(raw[len(raw):cap(raw)])
		raw = raw[:len(raw)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return raw, false, err
		}
	}
	return raw, int64(len(raw)) > limit, nil
}
