// Package graph provides the undirected unipartite graph representation
// used by the distance-2 graph coloring (D2GC) algorithms.
//
// Adjacency lists are CSR-packed, sorted, duplicate-free, and never
// contain self-loops. Graphs are built either from an undirected edge
// list or from a square, structurally symmetric bipartite graph (the
// paper derives its D2GC inputs from symmetric matrices the same way).
package graph

import (
	"errors"
	"fmt"
	"sort"

	"bgpc/internal/bipartite"
)

// Graph is an immutable undirected graph in CSR form.
type Graph struct {
	n   int
	ptr []int64
	adj []int32
}

// Edge is one undirected edge {U, V}.
type Edge struct {
	U, V int32
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.adj)) / 2 }

// Nbors returns the sorted neighbour list of v (nbor(v) in the paper).
// The slice aliases internal storage and must not be modified.
func (g *Graph) Nbors(v int32) []int32 { return g.adj[g.ptr[v]:g.ptr[v+1]] }

// Deg returns |nbor(v)|.
func (g *Graph) Deg(v int32) int { return int(g.ptr[v+1] - g.ptr[v]) }

// MaxDeg returns the maximum vertex degree.
func (g *Graph) MaxDeg() int {
	maxDeg := 0
	for v := int32(0); int(v) < g.n; v++ {
		if d := g.Deg(v); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// ErrInvalidEdge reports an endpoint outside [0, n) or a self-loop.
var ErrInvalidEdge = errors.New("graph: invalid edge")

// FromEdges builds an undirected graph on n vertices. Duplicate edges
// are merged; self-loops are rejected.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("%w: (%d,%d) out of range n=%d", ErrInvalidEdge, e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("%w: self-loop at %d", ErrInvalidEdge, e.U)
		}
	}
	g := &Graph{n: n}
	g.ptr = make([]int64, n+1)
	for _, e := range edges {
		g.ptr[e.U+1]++
		g.ptr[e.V+1]++
	}
	for v := 0; v < n; v++ {
		g.ptr[v+1] += g.ptr[v]
	}
	adj := make([]int32, 2*len(edges))
	fill := make([]int64, n)
	put := func(a, b int32) {
		adj[g.ptr[a]+fill[a]] = b
		fill[a]++
	}
	for _, e := range edges {
		put(e.U, e.V)
		put(e.V, e.U)
	}
	g.adj = dedupeCSR(g.ptr, adj)
	return g, nil
}

// dedupeCSR sorts each segment, drops duplicates, and compacts.
func dedupeCSR(ptr []int64, adj []int32) []int32 {
	n := len(ptr) - 1
	var write int64
	for v := 0; v < n; v++ {
		seg := adj[ptr[v]:ptr[v+1]]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		start := write
		for i := range seg {
			if i > 0 && seg[i] == seg[i-1] {
				continue
			}
			adj[write] = seg[i]
			write++
		}
		ptr[v] = start
	}
	ptr[n] = write
	return adj[:write:write]
}

// ErrNotSymmetric reports a bipartite graph that cannot be interpreted
// as an undirected unipartite graph.
var ErrNotSymmetric = errors.New("graph: bipartite graph is not square and structurally symmetric")

// FromBipartite interprets a square, structurally symmetric bipartite
// graph as the adjacency structure of an undirected graph: vertex u is
// adjacent to vertex v (u != v) iff net u contains vertex v. Diagonal
// incidences (net v containing vertex v) are dropped.
func FromBipartite(b *bipartite.Graph) (*Graph, error) {
	if !b.IsStructurallySymmetric() {
		return nil, ErrNotSymmetric
	}
	n := b.NumVertices()
	g := &Graph{n: n}
	g.ptr = make([]int64, n+1)
	for v := int32(0); int(v) < n; v++ {
		d := int64(0)
		for _, u := range b.Vtxs(v) {
			if u != v {
				d++
			}
		}
		g.ptr[v+1] = g.ptr[v] + d
	}
	g.adj = make([]int32, g.ptr[n])
	for v := int32(0); int(v) < n; v++ {
		w := g.ptr[v]
		for _, u := range b.Vtxs(v) {
			if u != v {
				g.adj[w] = u
				w++
			}
		}
	}
	return g, nil
}

// Closed returns the closed-neighbourhood view of g as a bipartite
// graph: net v lists v itself, then nbor(v) in ascending order, and an
// isolated vertex gets an empty net. Two vertices share a net iff they
// are within distance two, so a BGPC coloring of the view is exactly a
// distance-2 coloring of g — the paper's reading of D2GC (Algorithms 9
// and 10 treat each vertex as the net covering {v} ∪ nbor(v)). The
// view is symmetric, so one CSR serves as both directions (see
// bipartite.FromSymmetricCSR); it costs n more ids than g itself.
//
// Isolated vertices need the empty net: the BGPC runners pre-color
// vertices incident to no net and never queue them, which is what the
// distance-2 algorithms do for vertices without neighbours.
func (g *Graph) Closed() *bipartite.Graph {
	ptr := make([]int64, g.n+1)
	for v := int32(0); int(v) < g.n; v++ {
		d := int64(g.Deg(v))
		if d > 0 {
			d++
		}
		ptr[v+1] = ptr[v] + d
	}
	adj := make([]int32, ptr[g.n])
	for v := int32(0); int(v) < g.n; v++ {
		if nb := g.Nbors(v); len(nb) > 0 {
			w := ptr[v]
			adj[w] = v
			copy(adj[w+1:], nb)
		}
	}
	return bipartite.FromSymmetricCSR(g.n, ptr, adj)
}

// Edges returns each undirected edge once (U < V), in sorted order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := int32(0); int(v) < g.n; v++ {
		for _, u := range g.Nbors(v) {
			if v < u {
				out = append(out, Edge{U: v, V: u})
			}
		}
	}
	return out
}

// D2ColorLowerBound returns 1 + max_v |nbor(v)|, the trivial lower
// bound on the number of colors of any valid distance-2 coloring (a
// vertex and all its neighbours must receive distinct colors).
func (g *Graph) D2ColorLowerBound() int {
	if g.n == 0 {
		return 0
	}
	return 1 + g.MaxDeg()
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int32) bool {
	nb := g.Nbors(u)
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		if nb[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nb) && nb[lo] == v
}

// BFSDistances returns the shortest-path distance (in edges) from src
// to every vertex, with -1 for unreachable vertices. Intended for
// validation and tooling, not hot paths.
func (g *Graph) BFSDistances(src int32) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range g.Nbors(v) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// ConnectedComponents returns a component id per vertex and the number
// of components.
func (g *Graph) ConnectedComponents() ([]int32, int) {
	comp := make([]int32, g.n)
	for i := range comp {
		comp[i] = -1
	}
	next := int32(0)
	queue := make([]int32, 0, g.n)
	for s := int32(0); int(s) < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, u := range g.Nbors(v) {
				if comp[u] == -1 {
					comp[u] = next
					queue = append(queue, u)
				}
			}
		}
		next++
	}
	return comp, int(next)
}
