package verify

import (
	"fmt"
	"testing"

	"bgpc/internal/gen"
	"bgpc/internal/graph"
	"bgpc/internal/rng"
)

// greedyD2 is a plain first-fit distance-2 coloring straight off the
// adjacency lists, independent of any bipartite view.
func greedyD2(g *graph.Graph) []int32 {
	colors := make([]int32, g.NumVertices())
	for i := range colors {
		colors[i] = -1
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		used := map[int32]bool{}
		for _, u := range g.Nbors(v) {
			used[colors[u]] = true
			for _, w := range g.Nbors(u) {
				if w != v {
					used[colors[w]] = true
				}
			}
		}
		c := int32(0)
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

// TestD2GCAgreesWithBGPCOnClosedView: the independent distance-2
// checker and the BGPC checker on g.Closed() accept and reject the same
// colorings. This is what lets the serving layer verify d2 jobs with
// BGPC on the view it colored.
func TestD2GCAgreesWithBGPCOnClosedView(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	for _, name := range gen.SymmetricPresetNames() {
		b, err := gen.Preset(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromBipartite(b)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	// Random graphs with a seeded subset of isolated vertices.
	for seed := uint64(1); seed <= 30; seed++ {
		r := rng.New(seed)
		n := r.Intn(50) + 2
		isolated := make([]bool, n)
		for k := r.Intn(n/3 + 1); k > 0; k-- {
			isolated[r.Intn(n)] = true
		}
		var edges []graph.Edge
		for i := r.Intn(3 * n); i > 0; i-- {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v && !isolated[u] && !isolated[v] {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("rand%d", seed)] = g
	}

	var valid, invalid int
	for name, g := range graphs {
		view := g.Closed()
		colors := greedyD2(g)
		if e1, e2 := D2GC(g, colors), BGPC(view, colors); e1 != nil || e2 != nil {
			t.Fatalf("%s: valid greedy coloring: D2GC %v, BGPC on view %v", name, e1, e2)
		}
		n := g.NumVertices()
		r := rng.New(uint64(n) + 99)
		maxColor := int32(0)
		for _, c := range colors {
			maxColor = max(maxColor, c)
		}
		// Seeded one-vertex perturbations: copy a color from within
		// distance two, pick any color up to one past the maximum, or
		// uncolor the vertex.
		for trial := 0; trial < 40; trial++ {
			v := int32(r.Intn(n))
			old := colors[v]
			switch trial % 3 {
			case 0:
				if nb := g.Nbors(v); len(nb) > 0 {
					u := nb[r.Intn(len(nb))]
					if nb2 := g.Nbors(u); r.Intn(2) == 0 && len(nb2) > 1 {
						u = nb2[r.Intn(len(nb2))]
					}
					colors[v] = colors[u]
				}
			case 1:
				colors[v] = int32(r.Intn(int(maxColor) + 2))
			default:
				colors[v] = -1
			}
			e1, e2 := D2GC(g, colors), BGPC(view, colors)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("%s: vertex %d recolored %d→%d: D2GC %v, BGPC on view %v", name, v, old, colors[v], e1, e2)
			}
			if e1 == nil {
				valid++
			} else {
				invalid++
			}
			colors[v] = old
		}
	}
	if valid == 0 || invalid == 0 {
		t.Fatalf("perturbations one-sided: %d valid, %d invalid", valid, invalid)
	}
	t.Logf("%d valid and %d invalid perturbations agreed", valid, invalid)
}
