package d2

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"bgpc/internal/core"
	"bgpc/internal/failpoint"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/order"
	"bgpc/internal/rng"
	"bgpc/internal/verify"
)

// pathGraph returns the path 0-1-2-3-4.
func pathGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func symPresets(t testing.TB, scale float64) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for _, name := range gen.SymmetricPresetNames() {
		b, err := gen.Preset(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromBipartite(b)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	return out
}

// sequential is the greedy D2GC baseline: core.Sequential on the
// closed-neighbourhood view.
func sequential(g *graph.Graph) *core.Result { return core.Sequential(g.Closed(), nil) }

func TestSequentialPath(t *testing.T) {
	g := pathGraph(t)
	res := sequential(g)
	if err := verify.D2GC(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	// Path distance-2 coloring needs 3 colors; first-fit natural order
	// achieves it: 0,1,2,0,1.
	want := []int32{0, 1, 2, 0, 1}
	for v, c := range res.Colors {
		if c != want[v] {
			t.Fatalf("colors = %v, want %v", res.Colors, want)
		}
	}
	if res.NumColors != 3 {
		t.Fatalf("NumColors = %d", res.NumColors)
	}
}

func TestSequentialMeetsLowerBoundOnStar(t *testing.T) {
	// Star K1,k: distance-2 coloring needs k+1 colors.
	edges := make([]graph.Edge, 6)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: int32(i + 1)}
	}
	g, err := graph.FromEdges(7, edges)
	if err != nil {
		t.Fatal(err)
	}
	res := sequential(g)
	if err := verify.D2GC(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 7 {
		t.Fatalf("NumColors = %d, want 7", res.NumColors)
	}
	if res.NumColors != g.D2ColorLowerBound() {
		t.Fatalf("star should meet its lower bound")
	}
}

func TestSequentialValidOnPresets(t *testing.T) {
	for name, g := range symPresets(t, 0.04) {
		res := sequential(g)
		if err := verify.D2GC(g, res.Colors); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.NumColors < g.D2ColorLowerBound() {
			t.Fatalf("%s: %d colors below lower bound %d", name, res.NumColors, g.D2ColorLowerBound())
		}
	}
}

func TestColorAllAlgorithmsValid(t *testing.T) {
	graphs := symPresets(t, 0.04)
	graphs["path"] = pathGraph(t)
	for _, spec := range core.NamedAlgorithms() {
		for _, threads := range []int{1, 4} {
			opts := spec.Opts
			opts.Threads = threads
			for name, g := range graphs {
				res, err := Color(g, opts)
				if err != nil {
					t.Fatalf("%s/%s/t%d: %v", spec.Name, name, threads, err)
				}
				if err := verify.D2GC(g, res.Colors); err != nil {
					t.Fatalf("%s/%s/t%d: %v", spec.Name, name, threads, err)
				}
				if res.NumColors < g.D2ColorLowerBound() {
					t.Fatalf("%s/%s/t%d: %d colors < lower bound %d",
						spec.Name, name, threads, res.NumColors, g.D2ColorLowerBound())
				}
			}
		}
	}
}

func TestColorOneThreadVVMatchesSequential(t *testing.T) {
	g := symPresets(t, 0.04)["channel"]
	seq := sequential(g)
	par, err := Color(g, Options{Threads: 1, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := range seq.Colors {
		if seq.Colors[v] != par.Colors[v] {
			t.Fatalf("vertex %d: %d vs %d", v, seq.Colors[v], par.Colors[v])
		}
	}
	if par.Iterations != 1 {
		t.Fatalf("iterations = %d", par.Iterations)
	}
}

func TestNetPhaseRespectsLemmaAnalogue(t *testing.T) {
	// Algorithm 9 assigns colors ≤ |nbor(v)| for the processing net v,
	// hence ≤ max degree overall — within the D2 lower bound 1+maxdeg.
	// The core.iterate failpoint stops N1-N2 at the start of iteration
	// 2, so every surviving color comes from the net-based phases of
	// iteration 1.
	defer failpoint.Reset()
	for name, g := range symPresets(t, 0.04) {
		if err := failpoint.Arm(core.FPIterate, "cancel@1#1"); err != nil {
			t.Fatal(err)
		}
		opts, _ := core.ParseAlgorithm("N1-N2")
		opts.Threads = 2
		ctx, cancel := context.WithCancel(context.Background())
		res, err := ColorCtx(ctx, g, opts)
		cancel()
		var ce *core.CancelError
		if !errors.As(err, &ce) || ce.Iteration != 1 {
			t.Fatalf("%s: want a cancel after iteration 1, got %v", name, err)
		}
		if err := verify.D2GCPartial(g, res.Colors); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		maxDeg := int32(g.MaxDeg())
		for u := int32(0); int(u) < g.NumVertices(); u++ {
			if cu := res.Colors[u]; cu > maxDeg {
				t.Fatalf("%s: color %d > max degree %d", name, cu, maxDeg)
			}
		}
		if ce.Colored == 0 {
			t.Fatalf("%s: net phase colored nothing", name)
		}
	}
}

func TestColorWithOrder(t *testing.T) {
	g := symPresets(t, 0.04)["copapers"]
	ord := order.Random(g.NumVertices(), 7)
	res, err := Color(g, Options{Threads: 2, Chunk: 64, LazyQueues: true, Order: ord})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.D2GC(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestColorIsolatedVertices(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []core.Balance{core.BalanceNone, core.BalanceB1, core.BalanceB2} {
		res, err := Color(g, Options{Threads: 2, NetColorIters: 1, NetCRIters: 2, Balance: b})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.D2GC(g, res.Colors); err != nil {
			t.Fatal(err)
		}
		if res.Colors[2] != 0 || res.Colors[3] != 0 {
			t.Fatalf("balance %v: isolated vertices colored %v", b, res.Colors)
		}
	}
}

func TestColorEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Color(g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestValidateRejects(t *testing.T) {
	g := pathGraph(t)
	cases := []Options{
		{NetColorIters: 3, NetCRIters: 1},
		{NetColorIters: -1},
		{Order: []int32{0}},
		{Balance: core.Balance(7)},
	}
	for i, opts := range cases {
		if _, err := Color(g, opts); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBalancingValidAndBalances(t *testing.T) {
	g := symPresets(t, 0.08)["copapers"]
	run := func(b core.Balance) verify.ColorStats {
		opts := Options{Threads: 2, Chunk: 64, LazyQueues: true, NetCRIters: 2, Balance: b}
		res, err := Color(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.D2GC(g, res.Colors); err != nil {
			t.Fatalf("balance %v: %v", b, err)
		}
		return verify.Stats(res.Colors)
	}
	u := run(core.BalanceNone)
	b2 := run(core.BalanceB2)
	t.Logf("stddev U=%.2f B2=%.2f colors U=%d B2=%d", u.StdDev, b2.StdDev, u.NumColors, b2.NumColors)
	if b2.StdDev >= u.StdDev {
		t.Fatalf("B2 stddev %.2f ≥ unbalanced %.2f", b2.StdDev, u.StdDev)
	}
}

func TestColorPropertyRandomGraphs(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(40) + 2
		m := r.Intn(150)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return false
		}
		netCR := r.Intn(3)
		opts := Options{
			Threads:       r.Intn(4) + 1,
			Chunk:         []int{1, 64}[r.Intn(2)],
			LazyQueues:    r.Intn(2) == 0,
			NetCRIters:    netCR,
			NetColorIters: r.Intn(netCR + 1),
			Balance:       core.Balance(r.Intn(3)),
			// All three net-coloring variants apply to the view.
			NetColorVariant: core.NetColorVariant(r.Intn(3)),
		}
		res, err := Color(g, opts)
		if err != nil {
			return false
		}
		return verify.D2GC(g, res.Colors) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkD2N1N2Channel(b *testing.B) {
	bg, err := gen.Preset("channel", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromBipartite(bg)
	if err != nil {
		b.Fatal(err)
	}
	opts, _ := core.ParseAlgorithm("N1-N2")
	opts.Threads = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Color(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestD2EquivalentToBGPCWithFullDiagonal: for a square symmetric
// matrix whose diagonal is fully populated, the BGPC conflict relation
// on columns coincides exactly with the distance-2 relation on the
// matrix graph (sharing net u means distance ≤ 1 to u or distance 2
// through u). Sequential first-fit in natural order must therefore
// produce identical colorings: the matrix's own nets and the
// closed-neighbourhood view built from its graph are the same sets.
func TestD2EquivalentToBGPCWithFullDiagonal(t *testing.T) {
	for _, name := range []string{"afshell", "bone010", "copapers"} {
		b, err := gen.Preset(name, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		// Verify the diagonal is fully populated (our symmetric presets
		// built with includeSelf/diagonal satisfy this).
		for v := int32(0); int(v) < b.NumNets(); v++ {
			found := false
			for _, u := range b.Vtxs(v) {
				if u == v {
					found = true
					break
				}
			}
			if !found {
				t.Skipf("%s: diagonal entry %d missing; equivalence needs a full diagonal", name, v)
			}
		}
		g, err := graph.FromBipartite(b)
		if err != nil {
			t.Fatal(err)
		}
		bgpcRes := core.Sequential(b, nil)
		d2Res := sequential(g)
		for v := range bgpcRes.Colors {
			if bgpcRes.Colors[v] != d2Res.Colors[v] {
				t.Fatalf("%s: vertex %d: BGPC %d vs D2GC %d", name, v, bgpcRes.Colors[v], d2Res.Colors[v])
			}
		}
	}
}
