package mtx

// The entry loop ReadLimited used before the byte-level scanner, kept
// verbatim (bufio.Scanner, strings.TrimSpace, strings.Fields,
// strconv.Atoi) as the oracle FuzzReadDifferential checks the scanner
// against. Only the names changed. It shares readHeader with
// ReadLimited, which the rewrite did not touch.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"bgpc/internal/bipartite"
	"bgpc/internal/failpoint"
	"bgpc/internal/limits"
)

func referenceReadLimited(r io.Reader, lim limits.ParseLimits) (*bipartite.Graph, error) {
	lim = lim.WithDefaults()
	br := bufio.NewReaderSize(r, 1<<16)
	h, err := readHeader(br, lim)
	if err != nil {
		return nil, err
	}
	capHint := h.nnz * int64(expandFactor(h.symmetry))
	if capHint > 4096 {
		capHint = 4096
	}
	edges := make([]bipartite.Edge, 0, capHint)
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<16), lim.MaxLineBytes)
	seen := int64(0)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' {
			continue
		}
		if seen >= h.nnz {
			return nil, fmt.Errorf("%w: more than %d declared entries", ErrFormat, h.nnz)
		}
		if err := failpoint.Inject(FPReadEntry); err != nil {
			return nil, fmt.Errorf("%w: injected fault at entry %d: %v", ErrFormat, seen+1, err)
		}
		row, col, err := referenceParseEntry(line, h)
		if err != nil {
			return nil, err
		}
		if row < 1 || row > h.rows || col < 1 || col > h.cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrFormat, row, col, h.rows, h.cols)
		}
		edges = append(edges, bipartite.Edge{Net: int32(row - 1), Vtx: int32(col - 1)})
		if h.symmetry != "general" && row != col {
			edges = append(edges, bipartite.Edge{Net: int32(col - 1), Vtx: int32(row - 1)})
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("%w: entry line exceeds %d bytes", ErrFormat, lim.MaxLineBytes)
		}
		return nil, err
	}
	if seen != h.nnz {
		return nil, fmt.Errorf("%w: declared %d entries, found %d", ErrFormat, h.nnz, seen)
	}
	return bipartite.FromEdges(h.rows, h.cols, edges)
}

func referenceParseEntry(line string, h header) (row, col int, err error) {
	parts := strings.Fields(line)
	want := 2 + h.valueCols
	if len(parts) != want {
		return 0, 0, fmt.Errorf("%w: entry %q has %d fields, want %d", ErrFormat, line, len(parts), want)
	}
	row, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("%w: bad row index in %q", ErrFormat, line)
	}
	col, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("%w: bad column index in %q", ErrFormat, line)
	}
	for _, p := range parts[2:] {
		if _, err := strconv.ParseFloat(p, 64); err != nil {
			return 0, 0, fmt.Errorf("%w: bad value in %q", ErrFormat, line)
		}
	}
	return row, col, nil
}
