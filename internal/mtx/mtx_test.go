package mtx

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"bgpc/internal/bipartite"
	"bgpc/internal/rng"
)

func TestReadPatternGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
% a comment
3 4 5
1 1
1 2
2 3
3 4
3 1
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNets() != 3 || g.NumVertices() != 4 || g.NumEdges() != 5 {
		t.Fatalf("dims: %d %d %d", g.NumNets(), g.NumVertices(), g.NumEdges())
	}
	if got := g.Vtxs(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Vtxs(0) = %v", got)
	}
}

func TestReadRealValuesDiscarded(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 2 3
1 1 3.14
2 2 -1e-9
1 2 0.0
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestReadSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1.0
2 1 2.0
3 2 0.5
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// (1,1) stays single; (2,1) and (3,2) expand.
	if g.NumEdges() != 5 {
		t.Fatalf("edges = %d, want 5", g.NumEdges())
	}
	if !g.IsStructurallySymmetric() {
		t.Fatal("expanded matrix not symmetric")
	}
}

func TestReadComplexField(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate complex general
2 2 1
1 2 1.0 -2.0
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"bad banner":       "%%NotMM matrix coordinate real general\n1 1 0\n",
		"array format":     "%%MatrixMarket matrix array real general\n1 1\n",
		"unknown field":    "%%MatrixMarket matrix coordinate funny general\n1 1 0\n",
		"unknown symmetry": "%%MatrixMarket matrix coordinate real diagonal\n1 1 0\n",
		"bad size line":    "%%MatrixMarket matrix coordinate pattern general\n1 1\n",
		"negative size":    "%%MatrixMarket matrix coordinate pattern general\n-1 1 0\n",
		"too few entries":  "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n",
		"too many entries": "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n2 2\n",
		"value missing":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		"bad value":        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zzz\n",
		"bad index":        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\nx 1\n",
		"out of range":     "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n",
		"zero index":       "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n",
		"missing size":     "%%MatrixMarket matrix coordinate pattern general\n% only comments\n",
		"sym not square":   "%%MatrixMarket matrix coordinate pattern symmetric\n2 7 2\n1 1\n1 7\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	g, err := bipartite.FromNetLists(4, [][]int32{{0, 1, 3}, {2}, {}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNets() != g.NumNets() || g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed dims")
	}
	for v := int32(0); int(v) < g.NumNets(); v++ {
		a, b := g.Vtxs(v), g2.Vtxs(v)
		if len(a) != len(b) {
			t.Fatalf("net %d: %v vs %v", v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("net %d: %v vs %v", v, a, b)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		numNet, numVtx := r.Intn(10)+1, r.Intn(10)+1
		m := r.Intn(40)
		edges := make([]bipartite.Edge, m)
		for i := range edges {
			edges[i] = bipartite.Edge{Net: int32(r.Intn(numNet)), Vtx: int32(r.Intn(numVtx))}
		}
		g, err := bipartite.FromEdges(numNet, numVtx, edges)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			return false
		}
		g2, err := Read(&buf)
		if err != nil {
			return false
		}
		if g2.NumEdges() != g.NumEdges() {
			return false
		}
		for v := int32(0); int(v) < numNet; v++ {
			a, b := g.Vtxs(v), g2.Vtxs(v)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	g, err := bipartite.FromNetLists(2, [][]int32{{0, 1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 3 {
		t.Fatalf("edges = %d", g2.NumEdges())
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.mtx")); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestBlankLinesAndCommentsBetweenEntries(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern general\n" +
		"\n% comment after banner\n2 2 2\n\n1 1\n% mid comment\n2 2\n\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestSkewSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real skew-symmetric
3 3 2
2 1 5.0
3 1 -2.0
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
}

func TestReadFileGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx.gz")
	g, err := bipartite.FromNetLists(2, [][]int32{{0, 1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if err := Write(zw, g); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 3 {
		t.Fatalf("edges = %d", g2.NumEdges())
	}
}

func TestReadFileBadGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.mtx.gz")
	if err := os.WriteFile(path, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("bad gzip accepted")
	}
}
