package d2_test

// Golden differential test for the D2GC entry points. Every case below
// records an FNV-1a hash of the produced colors (and the iteration
// count for the parallel runs) in testdata/golden.txt; the test fails
// if any implementation change moves a single color. It calls only
// long-standing public entry points (d2.Color, bgpc.SequentialD2,
// delta.RecolorD2), so the table can be regenerated on, and checked
// against, any revision that has them. Work counters are deliberately
// not recorded: the work model of a run may change, its colors may not.
//
// Regenerate (only when a color change is intended):
//
//	go test ./internal/d2 -run TestGoldenColors -update

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bgpc"
	"bgpc/internal/core"
	"bgpc/internal/d2"
	"bgpc/internal/delta"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/order"
	"bgpc/internal/rng"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current implementation")

const goldenPath = "testdata/golden.txt"

func hashColors(colors []int32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range colors {
		u := uint32(c)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenGraph is one named input of the golden table.
type goldenGraph struct {
	name string
	g    *graph.Graph
}

func presetGraphs(t *testing.T) []goldenGraph {
	t.Helper()
	var out []goldenGraph
	add := func(name string, scale float64) {
		b, err := gen.Preset(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromBipartite(b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenGraph{fmt.Sprintf("%s@%g", name, scale), g})
	}
	for _, scale := range []float64{0.05, 0.1} {
		for _, name := range gen.SymmetricPresetNames() {
			add(name, scale)
		}
	}
	// copapers@1.0 is the only preset rung with isolated vertices.
	add("copapers", 1.0)
	return out
}

// randomGraph draws a seeded graph in which a seeded subset of the
// vertices is kept isolated.
func randomGraph(seed uint64) *graph.Graph {
	r := rng.New(seed)
	n := r.Intn(60) + 2
	isolated := make([]bool, n)
	for k := r.Intn(n/3 + 1); k > 0; k-- {
		isolated[r.Intn(n)] = true
	}
	m := r.Intn(4 * n)
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v && !isolated[u] && !isolated[v] {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func randomGraphs() []goldenGraph {
	var out []goldenGraph
	for seed := uint64(1); seed <= 40; seed++ {
		out = append(out, goldenGraph{fmt.Sprintf("rand%d", seed), randomGraph(seed)})
	}
	return out
}

// goldenCases computes every golden line, keyed by case name.
func goldenCases(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	put := func(key, val string) {
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate golden case %q", key)
		}
		out[key] = val
	}
	graphs := append(presetGraphs(t), randomGraphs()...)
	for _, gg := range graphs {
		for _, spec := range core.NamedAlgorithms() {
			for _, bal := range []core.Balance{core.BalanceNone, core.BalanceB1, core.BalanceB2} {
				opts := spec.Opts
				opts.Threads = 1
				opts.Balance = bal
				res, err := d2.Color(gg.g, opts)
				if err != nil {
					t.Fatalf("%s %s %v: %v", gg.name, spec.Name, bal, err)
				}
				put(fmt.Sprintf("color/%s/%s/%v", gg.name, spec.Name, bal),
					fmt.Sprintf("%s %d", hashColors(res.Colors), res.Iterations))
			}
		}

		n := gg.g.NumVertices()
		put("seq/"+gg.name+"/natural", hashColors(bgpc.SequentialD2(gg.g, nil).Colors))
		put("seq/"+gg.name+"/random", hashColors(bgpc.SequentialD2(gg.g, order.Random(n, 11)).Colors))

		// Repair → FinishSequential from a seeded partial state that
		// carries distance-2 conflicts and holes; RecolorD2 uncolors
		// the dirty set, repairs and finishes.
		r := rng.New(uint64(n)*7919 + 5)
		base := make([]int32, n)
		palette := gg.g.D2ColorLowerBound()/2 + 1
		for v := range base {
			if r.Intn(5) == 0 {
				base[v] = core.Uncolored
			} else {
				base[v] = int32(r.Intn(palette))
			}
		}
		dirty := make([]int32, 0, n/10+1)
		for v := 0; v < n; v += r.Intn(10) + 1 {
			dirty = append(dirty, int32(v))
		}
		colors, st, err := delta.RecolorD2(gg.g, base, dirty)
		if err != nil {
			t.Fatalf("%s: RecolorD2: %v", gg.name, err)
		}
		put("repair/"+gg.name, fmt.Sprintf("%s %d", hashColors(colors), st.Recolored))
	}
	return out
}

// TestGoldenColors pins D2GC colors and iteration counts at threads=1
// across the symmetric presets, seeded random graphs with isolated
// vertices, the eight schedules, and U/B1/B2 balancing, plus the
// sequential baseline and the repair-and-finish path.
func TestGoldenColors(t *testing.T) {
	got := goldenCases(t)
	if *update {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cases", len(keys))
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[key] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, implementation produced %d", len(want), len(got))
	}
	bad := 0
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: case missing", k)
			bad++
		} else if g != w {
			t.Errorf("%s: got %s, want %s", k, g, w)
			bad++
		}
		if bad > 20 {
			t.Fatal("too many mismatches")
		}
	}
}
