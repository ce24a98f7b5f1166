package mtx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// The entry scanner: lines come out of the bufio.Reader's own buffer
// and are tokenized and converted in place, in one pass over their
// bytes, so a data line costs no allocation. It accepts exactly what
// strings.Fields + strconv.Atoi + strconv.ParseFloat accept
// (FuzzReadDifferential holds it to the reference loop in
// reference_test.go, which is built from those). ASCII separators and
// unsigned indices of up to 18 digits take the fast path; a byte
// ≥ 0x80 (NBSP and NEL are strings.Fields separators), a signed or
// longer index, and value columns take slower steps inside the same
// tokenizer.

// lineReader yields the lines of br without copying them.
type lineReader struct {
	br  *bufio.Reader
	max int // lim.MaxLineBytes
	// long assembles a line that overflows br's buffer; reused.
	long []byte
}

// next returns the next line without its '\n', or io.EOF after the
// last one. The slice is valid until the next call. A line whose bytes
// plus its terminator exceed max is an ErrFormat (a too-long line is a
// malformed document, like any other format violation); a final line
// without a '\n' is counted as if it had one. Accumulation stops at
// the cap, so a hostile line costs at most max bytes of memory.
func (lr *lineReader) next() ([]byte, error) {
	line, err := lr.br.ReadSlice('\n')
	if err == nil && len(line) <= lr.max {
		return line[:len(line)-1], nil
	}
	if errors.Is(err, bufio.ErrBufferFull) {
		lr.long = append(lr.long[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			if len(lr.long) >= lr.max {
				return nil, lr.tooLong()
			}
			line, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	switch {
	case err == nil:
		if len(line) > lr.max {
			return nil, lr.tooLong()
		}
		return line[:len(line)-1], nil
	case errors.Is(err, io.EOF):
		if len(line) == 0 {
			return nil, io.EOF
		}
		if len(line) >= lr.max {
			return nil, lr.tooLong()
		}
		return line, nil
	default:
		return nil, err
	}
}

func (lr *lineReader) tooLong() error {
	return fmt.Errorf("%w: entry line exceeds %d bytes", ErrFormat, lr.max)
}

// maxEntryFields is the most fields a valid entry line has: two
// indices and a complex value.
const maxEntryFields = 4

// field is one whitespace-separated field of a line. val is its value
// when plain (1 to 18 ASCII digits, which cannot overflow).
type field struct {
	start, end int
	val        int
	plain      bool
}

// fields holds the first maxEntryFields fields of a line and the count
// of all of them.
type fields struct {
	n  int
	at [maxEntryFields]field
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// split records the fields of line, splitting where strings.Fields
// does (unicode.IsSpace on each decoded rune; invalid UTF-8 decodes as
// a non-space RuneError), and converts digit runs as it goes.
func (f *fields) split(line []byte) {
	f.n = 0
	for i := 0; i < len(line); {
		if c := line[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				i++
				continue
			}
		} else if r, w := utf8.DecodeRune(line[i:]); unicode.IsSpace(r) {
			i += w
			continue
		}
		start, val, digits := i, 0, true
		for i < len(line) {
			c := line[i]
			if d := c - '0'; d <= 9 {
				val = val*10 + int(d)
				i++
				continue
			}
			if c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				digits = false
				i++
				continue
			}
			r, w := utf8.DecodeRune(line[i:])
			if unicode.IsSpace(r) {
				break
			}
			digits = false
			i += w
		}
		if f.n < maxEntryFields {
			f.at[f.n] = field{start: start, end: i, val: val, plain: digits && i-start <= 18}
		}
		f.n++
	}
}

// text returns field k of line.
func (f *fields) text(line []byte, k int) []byte {
	return line[f.at[k].start:f.at[k].end]
}

// index converts field k with strconv.Atoi's semantics: a plain field
// is already converted; a sign, a longer digit run or a stray byte
// goes through strconv.
func (f *fields) index(line []byte, k int) (int, bool) {
	if f.at[k].plain {
		return f.at[k].val, true
	}
	n, err := strconv.Atoi(string(f.text(line, k)))
	return n, err == nil
}

// parseEntry converts the fields of one data line to a 1-based
// (row, col), validating the valueCols value columns after them. The
// checks run in the reference loop's order, so a line wrong in several
// ways reports the same error there and here.
func parseEntry(line []byte, f *fields, valueCols int) (row, col int, err error) {
	want := 2 + valueCols
	if f.n != want {
		return 0, 0, fmt.Errorf("%w: entry %q has %d fields, want %d", ErrFormat, bytes.TrimSpace(line), f.n, want)
	}
	var ok bool
	if row, ok = f.index(line, 0); !ok {
		return 0, 0, fmt.Errorf("%w: bad row index in %q", ErrFormat, bytes.TrimSpace(line))
	}
	if col, ok = f.index(line, 1); !ok {
		return 0, 0, fmt.Errorf("%w: bad column index in %q", ErrFormat, bytes.TrimSpace(line))
	}
	for k := 2; k < want; k++ {
		if _, err := strconv.ParseFloat(string(f.text(line, k)), 64); err != nil {
			return 0, 0, fmt.Errorf("%w: bad value in %q", ErrFormat, bytes.TrimSpace(line))
		}
	}
	return row, col, nil
}
