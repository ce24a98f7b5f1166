// Package mtx reads and writes sparse matrices in the NIST MatrixMarket
// coordinate format, the interchange format of the SuiteSparse/UFL
// collection the paper's test-bed comes from. Only the structure
// (pattern) matters for coloring, so numerical values are parsed and
// discarded; pattern, real, integer, and complex fields are accepted,
// as are general, symmetric, and skew-symmetric symmetry modes
// (symmetric entries are expanded).
//
// The parser treats its input as untrusted. Nothing is ever allocated
// from header claims alone: the edge buffer starts small and grows
// geometrically with data actually scanned, every line (banner,
// comment, size, entry) is length-capped, and declared dimensions are
// checked against limits.ParseLimits before a byte of data is read.
// Violations surface as two typed errors — ErrFormat for malformed
// input, limits.ErrTooLarge for well-formed input over a cap — so
// serving layers can map them to 400 and 413 respectively.
//
// Data lines go through one byte-level scanner (scan.go) that reads
// them in place from the bufio.Reader's buffer: a matrix costs a fixed
// handful of allocations plus its edge slice and CSR arrays, not one
// per line.
package mtx

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"bgpc/internal/bipartite"
	"bgpc/internal/failpoint"
	"bgpc/internal/limits"
)

// ErrFormat reports malformed MatrixMarket input.
var ErrFormat = errors.New("mtx: malformed MatrixMarket input")

// ErrTooLarge re-exports the cap-violation sentinel so callers can
// match oversized input without importing internal/limits.
var ErrTooLarge = limits.ErrTooLarge

// FPReadEntry is probed once per data line while scanning coordinate
// entries. An injected error surfaces as a format error mid-stream —
// the shape of a truncated or corrupted matrix file — so serving
// layers can rehearse parse failures on otherwise valid input; "delay"
// turns the parse into a slow reader.
const FPReadEntry = "mtx.readEntry"

// header describes the parsed banner + size line.
type header struct {
	field     string // pattern | real | integer | complex
	symmetry  string // general | symmetric | skew-symmetric | hermitian
	rows      int
	cols      int
	nnz       int64
	valueCols int // numbers after the two indices on each entry line
}

// Info is the declared shape of a MatrixMarket document — what the
// header claims, before any data is scanned. Admission layers use it to
// estimate a job's footprint without paying for the parse.
type Info struct {
	Rows int
	Cols int
	NNZ  int64
	// Symmetric reports a non-general symmetry mode: the in-memory
	// entry count doubles under expansion.
	Symmetric bool
	Field     string
}

// PeekInfo parses only the banner, comments, and size line, enforcing
// lim's caps, and returns the declared shape. It reads a bounded prefix
// of r (at most the header lines), never the data section.
func PeekInfo(r io.Reader, lim limits.ParseLimits) (Info, error) {
	lim = lim.WithDefaults()
	// The header is a few short lines and readLine accumulates longer
	// ones itself, so a small buffer does: this runs on the request
	// goroutine for every inline matrix.
	br := bufio.NewReaderSize(r, 4096)
	h, err := readHeader(br, lim)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Rows:      h.rows,
		Cols:      h.cols,
		NNZ:       h.nnz,
		Symmetric: h.symmetry != "general",
		Field:     h.field,
	}, nil
}

// Read parses MatrixMarket coordinate input into a bipartite graph with
// rows as nets and columns as vertices, under the library-default caps.
func Read(r io.Reader) (*bipartite.Graph, error) {
	return ReadLimited(r, limits.DefaultParseLimits())
}

// ReadLimited is Read with caller-supplied caps on declared dimensions
// and line lengths. Zero-valued fields of lim fall back to the
// defaults.
func ReadLimited(r io.Reader, lim limits.ParseLimits) (*bipartite.Graph, error) {
	lim = lim.WithDefaults()
	// 64KiB read buffer: readLine and the entry scanner accumulate
	// longer lines themselves (up to lim.MaxLineBytes), so the buffer
	// need not fit a whole line — and a rejected hostile header must
	// not have cost a big buffer.
	br := bufio.NewReaderSize(r, 1<<16)
	h, err := readHeader(br, lim)
	if err != nil {
		return nil, err
	}
	// Never pre-size from the untrusted header: cap the hint so peak
	// allocation tracks bytes actually scanned (append grows the slice
	// geometrically), not the header's claim. A crafted "nnz=10^12"
	// costs the attacker one small slice, not gigabytes.
	capHint := h.nnz * int64(expandFactor(h.symmetry))
	if capHint > 4096 {
		capHint = 4096
	}
	edges := make([]bipartite.Edge, 0, capHint)
	symmetric := h.symmetry != "general"
	lr := lineReader{br: br, max: lim.MaxLineBytes}
	var f fields
	seen := int64(0)
	for {
		line, err := lr.next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		f.split(line)
		if f.n == 0 || line[f.at[0].start] == '%' {
			continue // blank or comment
		}
		if seen >= h.nnz {
			return nil, fmt.Errorf("%w: more than %d declared entries", ErrFormat, h.nnz)
		}
		if err := failpoint.Inject(FPReadEntry); err != nil {
			return nil, fmt.Errorf("%w: injected fault at entry %d: %v", ErrFormat, seen+1, err)
		}
		row, col, err := parseEntry(line, &f, h.valueCols)
		if err != nil {
			return nil, err
		}
		if row < 1 || row > h.rows || col < 1 || col > h.cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrFormat, row, col, h.rows, h.cols)
		}
		edges = append(edges, bipartite.Edge{Net: int32(row - 1), Vtx: int32(col - 1)})
		if symmetric && row != col {
			// The mirror must fit too: a symmetric header does not
			// promise a square matrix.
			if col > h.rows || row > h.cols {
				return nil, fmt.Errorf("%w: mirror of entry (%d,%d) outside %dx%d", ErrFormat, row, col, h.rows, h.cols)
			}
			edges = append(edges, bipartite.Edge{Net: int32(col - 1), Vtx: int32(row - 1)})
		}
		seen++
	}
	if seen != h.nnz {
		return nil, fmt.Errorf("%w: declared %d entries, found %d", ErrFormat, h.nnz, seen)
	}
	return bipartite.FromEdges(h.rows, h.cols, edges)
}

func expandFactor(symmetry string) int {
	if symmetry == "general" {
		return 1
	}
	return 2
}

// readLine reads one newline-terminated line of at most max bytes from
// br. Longer lines are a format violation, reported before more than
// one buffer's worth has been accumulated — header parsing must never
// buffer an attacker-sized "line". io.EOF is returned alongside the
// final unterminated line, mirroring bufio.Reader.ReadString.
func readLine(br *bufio.Reader, max int) (string, error) {
	var sb strings.Builder
	for {
		frag, err := br.ReadSlice('\n')
		sb.Write(frag)
		if sb.Len() > max {
			return "", fmt.Errorf("%w: header line exceeds %d bytes", ErrFormat, max)
		}
		switch {
		case err == nil:
			return sb.String(), nil
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		case errors.Is(err, io.EOF):
			return sb.String(), io.EOF
		default:
			return "", err
		}
	}
}

func readHeader(br *bufio.Reader, lim limits.ParseLimits) (header, error) {
	var h header
	banner, err := readLine(br, lim.MaxLineBytes)
	if err != nil && !errors.Is(err, io.EOF) {
		return h, err
	}
	fields := strings.Fields(strings.ToLower(banner))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return h, fmt.Errorf("%w: bad banner %q", ErrFormat, strings.TrimSpace(banner))
	}
	if fields[2] != "coordinate" {
		return h, fmt.Errorf("%w: only coordinate format is supported, got %q", ErrFormat, fields[2])
	}
	h.field, h.symmetry = fields[3], fields[4]
	switch h.field {
	case "pattern":
		h.valueCols = 0
	case "real", "integer":
		h.valueCols = 1
	case "complex":
		h.valueCols = 2
	default:
		return h, fmt.Errorf("%w: unknown field %q", ErrFormat, h.field)
	}
	switch h.symmetry {
	case "general", "symmetric", "skew-symmetric", "hermitian":
	default:
		return h, fmt.Errorf("%w: unknown symmetry %q", ErrFormat, h.symmetry)
	}
	// Skip comments, then read the size line.
	for {
		line, err := readLine(br, lim.MaxLineBytes)
		if err != nil && !errors.Is(err, io.EOF) {
			return h, err
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || trimmed[0] == '%' {
			if errors.Is(err, io.EOF) {
				return h, fmt.Errorf("%w: missing size line", ErrFormat)
			}
			continue
		}
		parts := strings.Fields(trimmed)
		if len(parts) != 3 {
			return h, fmt.Errorf("%w: bad size line %q", ErrFormat, trimmed)
		}
		dims := make([]int64, 3)
		for i, p := range parts {
			v, convErr := strconv.ParseInt(p, 10, 64)
			if convErr != nil || v < 0 {
				return h, fmt.Errorf("%w: bad size line %q", ErrFormat, trimmed)
			}
			dims[i] = v
		}
		// Hard caps on the declared shape — checked before any data is
		// scanned, so an oversized claim is rejected for the cost of
		// reading its header.
		if dims[0] > int64(lim.MaxRows) {
			return h, fmt.Errorf("%w: declared %d rows exceeds cap %d", ErrTooLarge, dims[0], lim.MaxRows)
		}
		if dims[1] > int64(lim.MaxCols) {
			return h, fmt.Errorf("%w: declared %d columns exceeds cap %d", ErrTooLarge, dims[1], lim.MaxCols)
		}
		if dims[2] > lim.MaxNNZ {
			return h, fmt.Errorf("%w: declared %d nonzeros exceeds cap %d", ErrTooLarge, dims[2], lim.MaxNNZ)
		}
		// rows/cols are ≤ MaxInt32 here (capped above), so the product
		// fits in int64; a claim beyond it is internally inconsistent.
		if dims[0]*dims[1] < dims[2] {
			return h, fmt.Errorf("%w: declared %d nonzeros in a %dx%d matrix", ErrFormat, dims[2], dims[0], dims[1])
		}
		h.rows, h.cols, h.nnz = int(dims[0]), int(dims[1]), dims[2]
		return h, nil
	}
}

// ReadFile parses the MatrixMarket file at path. Files ending in .gz
// are decompressed transparently (SuiteSparse distributes compressed
// MatrixMarket archives).
func ReadFile(path string) (*bipartite.Graph, error) {
	return ReadFileLimited(path, limits.DefaultParseLimits())
}

// ReadFileLimited is ReadFile with caller-supplied parse caps.
func ReadFileLimited(path string, lim limits.ParseLimits) (*bipartite.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("mtx: %s: %w", path, err)
		}
		defer zr.Close()
		return ReadLimited(zr, lim)
	}
	return ReadLimited(f, lim)
}

// Write emits g in MatrixMarket "coordinate pattern general" form with
// rows as nets and columns as vertices.
func Write(w io.Writer, g *bipartite.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate pattern general"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", g.NumNets(), g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for v := int32(0); int(v) < g.NumNets(); v++ {
		for _, u := range g.Vtxs(v) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v+1, u+1); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes g to path in MatrixMarket form.
func WriteFile(path string, g *bipartite.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
