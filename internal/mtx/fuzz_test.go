package mtx

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"bgpc/internal/bipartite"
	"bgpc/internal/limits"
)

// FuzzRead hardens the MatrixMarket parser: arbitrary input must never
// panic, and any input that parses must round-trip through Write/Read
// to an identical structure.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 1\n2 3\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 1.5\n3 1 -2\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 0 1\n",
		"%%MatrixMarket matrix coordinate integer skew-symmetric\n2 2 1\n2 1 7\n",
		"% not a banner\n1 1 1\n1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n0 0 0\n",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return // malformed input rejected: fine
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatalf("reparse of own output: %v", err)
		}
		if g2.NumNets() != g.NumNets() || g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed dimensions: %dx%d/%d vs %dx%d/%d",
				g.NumNets(), g.NumVertices(), g.NumEdges(),
				g2.NumNets(), g2.NumVertices(), g2.NumEdges())
		}
	})
}

// FuzzReadHeader attacks the untrusted header path specifically:
// banners, comment runs, and size lines of arbitrary shape must either
// produce a consistent Info or a typed error — never a panic, and
// never an Info that violates the configured caps.
func FuzzReadHeader(f *testing.F) {
	seeds := []string{
		"%%MatrixMarket matrix coordinate pattern general\n2 3 2\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n",
		"%%MatrixMarket matrix coordinate pattern general\n2000000 2000000 1000000000000\n",
		"%%MatrixMarket matrix coordinate pattern general\n9223372036854775807 1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n-1 -1 -1\n",
		"%%MatrixMarket matrix coordinate pattern general\n1 1 99999999999999999999999\n",
		"%%MatrixMarket matrix coordinate pattern general\n% c\n% c\n1 1 0\n",
		"%%MatrixMarket matrix coordinate pattern general\n1 1 1 1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n\x00 \x00 \x00\n",
		"%%MatrixMarket matrix coordinate pattern general",
		"%%MatrixMarket matrix coordinate integer skew-symmetric\n4 4 1\n",
		"%%MatrixMarket\n",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	lim := limits.ParseLimits{MaxRows: 1 << 20, MaxCols: 1 << 20, MaxNNZ: 1 << 30, MaxLineBytes: 256}
	f.Fuzz(func(t *testing.T, input string) {
		info, err := PeekInfo(strings.NewReader(input), lim)
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("untyped header error: %v", err)
			}
			return
		}
		if info.Rows < 0 || info.Cols < 0 || info.NNZ < 0 {
			t.Fatalf("accepted negative dims: %+v", info)
		}
		if info.Rows > lim.MaxRows || info.Cols > lim.MaxCols || info.NNZ > lim.MaxNNZ {
			t.Fatalf("accepted dims beyond caps: %+v", info)
		}
	})
}

// differentialLimits are the caps FuzzReadDifferential runs under. The
// line cap is at least the old parser's 64 KiB scanner buffer: below
// it, bufio.Scanner only rejected lines that overflowed the buffer, so
// the old loop did not enforce a smaller cap exactly and the oracle
// would disagree with the scanner's exact enforcement there.
var differentialLimits = limits.ParseLimits{MaxRows: 1 << 16, MaxCols: 1 << 16, MaxNNZ: 1 << 20, MaxLineBytes: 1 << 16}

// differentialSeeds are the inputs the scanner's slow steps exist for,
// plus lines at and one byte over the line cap.
func differentialSeeds() []string {
	const (
		pat = "%%MatrixMarket matrix coordinate pattern general\n"
		flt = "%%MatrixMarket matrix coordinate real general\n"
		cpx = "%%MatrixMarket matrix coordinate complex general\n"
		sym = "%%MatrixMarket matrix coordinate pattern symmetric\n"
	)
	seeds := []string{
		pat + "3 3 2\r\n1 1\r\n2 3\r\n",
		pat + "3 3 2\n1\t1\n\t2\t\t3\t\n",
		pat + "3 3 2\n1\u00a01\n2\u00853\n",
		pat + "3 3 2\n\u00a0% nbsp comment\n\u30001 1\u3000\n2\u20283\n",
		pat + "3 3 1\n1\xc21\n",
		pat + "3 3 1\n1\xe2\xc2\x851\n",
		pat + "3 3 1\n\xa0 1 1\n",
		pat + "3 3 2\n+1 +1\n2 +3\n",
		pat + "3 3 1\n-1 1\n",
		pat + "3 3 1\n- 1\n",
		pat + "3 3 2\n0001 002\n0000000000000000000003 3\n",
		pat + "3 3 1\n000000000000000001 1\n",
		pat + "3 3 1\n12345678901234567890 1\n",
		pat + "3 3 1\n1 99999999999999999999\n",
		pat + "3 3 1\n9223372036854775807 1\n",
		pat + "3 3 1\n9223372036854775808 1\n",
		pat + "3 3 1\n1000000000000000001 1\n",
		pat + "3 3 1\n4294967297 1\n",
		flt + "3 3 3\n1 1 1.5e3\n2 2 -inf\n3 3 0x1p-2\n",
		flt + "3 3 1\n1 1 1e400\n",
		flt + "3 3 1\n1 1 1_0\n",
		flt + "3 3 1\n1 1 NaN\n",
		flt + "3 3 1\n1 1\n",
		"%%MatrixMarket matrix coordinate integer general\n3 3 1\n1 1 7\n",
		cpx + "3 3 1\n1 1 1 -1\n",
		cpx + "3 3 1\n1 1 1 -1 2\n",
		pat + "3 3 2\n1 1\n% mid-body comment\n   %indented\n\n2 2\n",
		pat + "3 3 2\n1 1\n2 2",
		pat + "3 3 2\n1 1\n2 2\n\r\n\v\f\n",
		pat + "3 3 1\n1 1\n2 2\n",
		pat + "3 3 2\n1 1\n",
		pat + "3 3 1\n1 1 1\n",
		pat + "3 3 1\n4 1\n",
		pat + "3 3 1\n0 1\n",
		sym + "3 3 2\n2 1\n3 3\n",
		sym + "2 7 2\n1 1\n1 7\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 1\n3 1 -2\n",
		pat + "0 0 0\n",
		pat + "0 0 0\n\n% trailing\n",
	}
	// Lines whose bytes, counting the '\n', are exactly the cap and one
	// over it; the same without the final '\n'.
	limit := differentialLimits.MaxLineBytes
	for _, n := range []int{limit - 1, limit, limit + 1} {
		line := "1 1" + strings.Repeat(" ", n-len("1 1")-1)
		seeds = append(seeds,
			pat+"2 2 2\n"+line+"\n2 2\n",
			pat+"2 2 1\n"+line+"\n",
			pat+"2 2 1\n"+line,
			pat+"2 2 1\n%"+strings.Repeat("c", n-2)+"\n1 1\n")
	}
	return seeds
}

// FuzzReadDifferential holds ReadLimited's byte-level scanner to the
// strings.Fields-based entry loop it replaced (referenceReadLimited):
// for every input both accept with the same graph, or both reject with
// the same sentinel error.
func FuzzReadDifferential(f *testing.F) {
	for _, s := range differentialSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if err := sameOutcome(input, differentialLimits); err != nil {
			t.Fatal(err)
		}
	})
}

// sameOutcome parses input with both parsers and describes any
// disagreement.
func sameOutcome(input string, lim limits.ParseLimits) error {
	got, gotErr := ReadLimited(strings.NewReader(input), lim)
	want, wantErr := referenceReadLimited(strings.NewReader(input), lim)
	if gotErr != nil || wantErr != nil {
		want := sentinel(wantErr)
		if errors.Is(wantErr, bipartite.ErrInvalidEdge) {
			// The reference loop left a symmetric entry whose mirror
			// falls outside a non-square matrix to FromEdges, an untyped
			// error; the scanner rejects that line as malformed.
			want = ErrFormat
		}
		if sentinel(gotErr) == nil || sentinel(gotErr) != want {
			return fmt.Errorf("errors differ: scanner %v, reference %v", gotErr, wantErr)
		}
		return nil
	}
	if got.NumNets() != want.NumNets() || got.NumVertices() != want.NumVertices() ||
		got.Fingerprint() != want.Fingerprint() {
		return fmt.Errorf("graphs differ: scanner %dx%d/%d %016x, reference %dx%d/%d %016x",
			got.NumNets(), got.NumVertices(), got.NumEdges(), got.Fingerprint(),
			want.NumNets(), want.NumVertices(), want.NumEdges(), want.Fingerprint())
	}
	return nil
}

// sentinel returns the typed error err matches, or nil.
func sentinel(err error) error {
	for _, s := range []error{ErrTooLarge, ErrFormat} {
		if errors.Is(err, s) {
			return s
		}
	}
	return nil
}
