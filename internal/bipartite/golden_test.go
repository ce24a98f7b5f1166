package bipartite_test

// Golden fingerprint values. Fingerprint is the identity the WAL keys
// its records by and the address clients send deltas to, so its value
// for a given graph must never change: a different hash would orphan
// every logged chain and every fingerprint a client holds. The table
// pins absolute values for preset graphs and for hand-built graphs that
// exercise the constructor's normalisation (duplicates, unsorted input,
// empty nets, empty dimensions).
//
// Regenerate (only when a fingerprint change is intended, which also
// means a WAL format break):
//
//	go test ./internal/bipartite -run TestGoldenFingerprints -update

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgpc/internal/bipartite"
	"bgpc/internal/gen"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.txt from the current implementation")

const fingerprintGolden = "testdata/fingerprints.txt"

type fpCase struct {
	name string
	g    *bipartite.Graph
}

func goldenFingerprintGraphs(t *testing.T) []fpCase {
	t.Helper()
	var out []fpCase
	add := func(name string, g *bipartite.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, fpCase{name, g})
	}
	for _, p := range []struct {
		name  string
		scale float64
	}{{"channel", 0.1}, {"channel", 0.5}, {"copapers", 0.1}, {"movielens", 0.1}, {"hv15r", 0.05}} {
		g, err := gen.Preset(p.name, p.scale)
		add(fmt.Sprintf("%s@%g", p.name, p.scale), g, err)
		if err == nil {
			add(fmt.Sprintf("%s@%g/transpose", p.name, p.scale), g.Transpose(), nil)
		}
	}

	g, err := bipartite.FromEdges(0, 0, nil)
	add("empty-0x0", g, err)
	g, err = bipartite.FromEdges(0, 5, nil)
	add("empty-0x5", g, err)
	g, err = bipartite.FromEdges(3, 0, nil)
	add("empty-3x0", g, err)
	g, err = bipartite.FromEdges(4, 4, nil)
	add("no-edges-4x4", g, err)
	g, err = bipartite.FromNetLists(4, [][]int32{{0, 1, 2}, {2, 3}, {3}, {}})
	add("tiny-sorted", g, err)
	// The same incidence set as tiny-sorted, reversed within and across
	// nets and with every incidence repeated: must equal tiny-sorted.
	g, err = bipartite.FromEdges(4, 4, []bipartite.Edge{
		{Net: 2, Vtx: 3}, {Net: 1, Vtx: 3}, {Net: 1, Vtx: 2}, {Net: 0, Vtx: 2},
		{Net: 0, Vtx: 1}, {Net: 0, Vtx: 0}, {Net: 0, Vtx: 2}, {Net: 2, Vtx: 3},
		{Net: 1, Vtx: 3}, {Net: 0, Vtx: 0}, {Net: 1, Vtx: 2}, {Net: 0, Vtx: 1},
	})
	add("tiny-unsorted-dup", g, err)
	g, err = bipartite.FromNetLists(6, [][]int32{{}, {5, 0, 5, 0}, {}, {}, {3}, {}})
	add("empty-nets-dup", g, err)
	g, err = bipartite.FromNetLists(1, [][]int32{{0, 0, 0, 0, 0, 0, 0, 0}})
	add("one-cell-repeated", g, err)
	return out
}

func readFingerprintGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(fingerprintGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, fp, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad golden line %q", line)
		}
		want[name] = fp
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestGoldenFingerprints(t *testing.T) {
	cases := goldenFingerprintGraphs(t)
	if *update {
		var sb strings.Builder
		sb.WriteString("# name fingerprint (%016x of Graph.Fingerprint); see golden_test.go\n")
		for _, c := range cases {
			fmt.Fprintf(&sb, "%s %016x\n", c.name, c.g.Fingerprint())
		}
		if err := os.MkdirAll(filepath.Dir(fingerprintGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readFingerprintGolden(t)
	if len(want) != len(cases) {
		t.Errorf("golden file has %d entries, test builds %d graphs", len(want), len(cases))
	}
	for _, c := range cases {
		got := fmt.Sprintf("%016x", c.g.Fingerprint())
		if want[c.name] != got {
			t.Errorf("%s: fingerprint %s, golden %q", c.name, got, want[c.name])
		}
	}
	if want["tiny-sorted"] != want["tiny-unsorted-dup"] {
		t.Errorf("construction order or duplicates moved the fingerprint: %s vs %s",
			want["tiny-sorted"], want["tiny-unsorted-dup"])
	}
}
