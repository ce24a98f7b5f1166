package distk

import (
	"testing"
	"testing/quick"

	"bgpc/internal/core"
	"bgpc/internal/d1"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/rng"
)

func pathN(t testing.TB, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, n-1)
	for i := 0; i < n-1; i++ {
		edges[i] = graph.Edge{U: int32(i), V: int32(i + 1)}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSequentialPathKColors(t *testing.T) {
	// A path needs exactly k+1 colors for distance-k coloring.
	g := pathN(t, 30)
	for k := 1; k <= 5; k++ {
		res, err := Sequential(g, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(g, k, res.Colors); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.NumColors != k+1 {
			t.Fatalf("k=%d: %d colors, want %d", k, res.NumColors, k+1)
		}
	}
}

func TestSequentialLargeKIsAllDistinct(t *testing.T) {
	// With k ≥ diameter every pair conflicts: n colors.
	g := pathN(t, 10)
	res, err := Sequential(g, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 10 {
		t.Fatalf("NumColors = %d, want 10", res.NumColors)
	}
}

func TestSequentialMatchesD1AndD2(t *testing.T) {
	b, err := gen.Preset("nlpkkt", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := Sequential(g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	d1res := d1.Sequential(g, nil)
	for v := range k1.Colors {
		if k1.Colors[v] != d1res.Colors[v] {
			t.Fatalf("k=1 vs d1 differ at %d", v)
		}
	}
	k2, err := Sequential(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// D2GC's greedy baseline is BGPC's on the closed-neighbourhood view.
	d2res := core.Sequential(g.Closed(), nil)
	for v := range k2.Colors {
		if k2.Colors[v] != d2res.Colors[v] {
			t.Fatalf("k=2 vs d2 differ at %d: %d vs %d", v, k2.Colors[v], d2res.Colors[v])
		}
	}
}

func TestColorParallelValidK3(t *testing.T) {
	b, err := gen.Preset("channel", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Threads: 1},
		{Threads: 4, Chunk: 16},
		{Threads: 4, Chunk: 16, Balance: core.BalanceB2},
	} {
		res, err := Color(g, 3, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if err := Verify(g, 3, res.Colors); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
	}
}

func TestColorRejects(t *testing.T) {
	g := pathN(t, 4)
	if _, err := Color(g, 0, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Color(g, 3, Options{NetCRIters: 1}); err == nil {
		t.Fatal("net phases accepted for odd k")
	}
	if _, err := Color(g, 2, Options{NetColorIters: 2, NetCRIters: 1}); err == nil {
		t.Fatal("NetColorIters > NetCRIters accepted")
	}
	if _, err := Sequential(g, -1, nil); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := Color(g, 2, Options{Order: []int32{0}}); err == nil {
		t.Fatal("bad order accepted")
	}
}

func TestVerifyDetects(t *testing.T) {
	g := pathN(t, 4) // 0-1-2-3
	if err := Verify(g, 2, []int32{0, 1, 2, 0}); err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, 3, []int32{0, 1, 2, 0}); err == nil {
		t.Fatal("distance-3 conflict accepted")
	}
	if err := Verify(g, 2, []int32{0, 1, -1, 0}); err == nil {
		t.Fatal("uncolored accepted")
	}
	if err := Verify(g, 0, []int32{0, 1, 2, 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := Verify(g, 2, []int32{0}); err == nil {
		t.Fatal("short slice accepted")
	}
}

func TestBallVisit(t *testing.T) {
	g := pathN(t, 7)
	b := newBall(7)
	var got []int32
	b.visit(g, 3, 2, func(u int32) { got = append(got, u) })
	want := map[int32]bool{1: true, 2: true, 4: true, 5: true}
	if len(got) != len(want) {
		t.Fatalf("ball(3,2) = %v", got)
	}
	for _, u := range got {
		if !want[u] {
			t.Fatalf("unexpected vertex %d in ball", u)
		}
	}
	// Repeated use must not leak state between calls.
	got = got[:0]
	b.visit(g, 0, 1, func(u int32) { got = append(got, u) })
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("ball(0,1) = %v", got)
	}
}

func TestBallStampWrap(t *testing.T) {
	g := pathN(t, 3)
	b := newBall(3)
	b.current = 1<<31 - 2
	count := 0
	b.visit(g, 0, 2, func(u int32) { count++ })
	if count != 2 {
		t.Fatalf("pre-wrap count = %d", count)
	}
	count = 0
	b.visit(g, 0, 2, func(u int32) { count++ }) // triggers wrap
	if count != 2 {
		t.Fatalf("post-wrap count = %d", count)
	}
}

func TestColorPropertyRandom(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(25) + 2
		m := r.Intn(60)
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
		k := r.Intn(4) + 1
		opts := Options{Threads: r.Intn(3) + 1, Chunk: 8, Balance: core.Balance(r.Intn(3))}
		res, err := Color(g, k, opts)
		if err != nil {
			return false
		}
		return Verify(g, k, res.Colors) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDistK3(b *testing.B) {
	bg, err := gen.Preset("channel", 0.05)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromBipartite(bg)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Threads: 4, Chunk: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Color(g, 3, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestColoringAgainstBFSDistances validates distance-k colorings with
// an independent oracle (per-source BFS), not the ball code the
// implementation itself uses.
func TestColoringAgainstBFSDistances(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := r.Intn(30) + 5
		m := r.Intn(80)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		k := r.Intn(3) + 1
		res, err := Color(g, k, Options{Threads: 2, Chunk: 8})
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); int(v) < n; v++ {
			dist := g.BFSDistances(v)
			for u := int32(0); int(u) < n; u++ {
				if u != v && dist[u] != -1 && int(dist[u]) <= k && res.Colors[u] == res.Colors[v] {
					t.Fatalf("trial %d k=%d: vertices %d,%d at distance %d share color %d",
						trial, k, v, u, dist[u], res.Colors[v])
				}
			}
		}
	}
}

func TestNetPhasesEvenK(t *testing.T) {
	b, err := gen.Preset("channel", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		for _, opts := range []Options{
			{Threads: 2, Chunk: 16, NetCRIters: 2},                   // V-N2 analogue
			{Threads: 2, Chunk: 16, NetColorIters: 1, NetCRIters: 2}, // N1-N2 analogue
			{Threads: 2, Chunk: 16, NetColorIters: 1, NetCRIters: 2, Balance: core.BalanceB2},
		} {
			res, err := Color(g, k, opts)
			if err != nil {
				t.Fatalf("k=%d %+v: %v", k, opts, err)
			}
			if err := Verify(g, k, res.Colors); err != nil {
				t.Fatalf("k=%d %+v: %v", k, opts, err)
			}
		}
	}
}

func TestNetPhaseK2MatchesD2Analogue(t *testing.T) {
	// With one thread, the distance-2 instantiation of the generalized
	// net phases must produce a valid coloring of the same quality
	// class as D2GC's N1-N2, which is core's N1-N2 on the
	// closed-neighbourhood view (not necessarily identical colors:
	// the half-radius ball excludes the center from the Wlocal start
	// offset by one, matching Algorithm 9's |nbor(v)| start).
	b, err := gen.Preset("nlpkkt", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Threads: 1, Chunk: 64, NetColorIters: 1, NetCRIters: 2}
	res, err := Color(g, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, 2, res.Colors); err != nil {
		t.Fatal(err)
	}
	d2res, err := core.Color(g.Closed(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Same color-count ballpark (within 10%): both run Algorithm 9-
	// style phases on the same structure.
	lo, hi := d2res.NumColors*9/10, d2res.NumColors*11/10+1
	if res.NumColors < lo || res.NumColors > hi {
		t.Fatalf("k=2 net phases used %d colors vs d2's %d", res.NumColors, d2res.NumColors)
	}
}

func TestColorPropertyEvenKNetPhases(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(25) + 2
		m := r.Intn(60)
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
		k := []int{2, 4}[r.Intn(2)]
		netCR := r.Intn(3)
		opts := Options{
			Threads: r.Intn(3) + 1, Chunk: 8,
			NetCRIters: netCR, NetColorIters: r.Intn(netCR + 1),
			Balance: core.Balance(r.Intn(3)),
		}
		res, err := Color(g, k, opts)
		if err != nil {
			return false
		}
		return Verify(g, k, res.Colors) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
