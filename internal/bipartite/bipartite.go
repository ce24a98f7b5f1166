// Package bipartite provides the compressed sparse bipartite-graph
// representation the coloring algorithms run on.
//
// Terminology follows the paper's hypergraph analogy: the vertices of
// VA (matrix columns) are "vertices" — the side that gets colored — and
// the vertices of VB (matrix rows) are "nets", which define the
// conflict neighbourhood: two vertices conflict iff they share a net.
//
// The graph stores both adjacency directions in CSR form: nets→vertices
// (vtxs, used by net-based algorithms and as the conflict oracle) and
// vertices→nets (nets, used by vertex-based algorithms). Adjacency
// lists are duplicate-free and kept in a fixed order, which makes
// traversal order and therefore sequential colorings deterministic.
// FromEdges and FromNetLists sort every list; FromSymmetricCSR keeps
// its caller's order (see there).
package bipartite

import (
	"errors"
	"fmt"
	"math"
)

// Graph is an immutable bipartite graph in dual CSR form.
type Graph struct {
	numVtx int // |VA|: vertices to color (matrix columns)
	numNet int // |VB|: nets (matrix rows)

	netPtr []int64 // len numNet+1
	netAdj []int32 // vertices of each net, sorted within a net
	vtxPtr []int64 // len numVtx+1
	vtxAdj []int32 // nets of each vertex, sorted within a vertex
}

// Edge is one (net, vertex) incidence, i.e. one nonzero of the
// underlying matrix at (row=Net, col=Vtx).
type Edge struct {
	Net int32
	Vtx int32
}

// NumVertices returns |VA|, the number of colorable vertices (columns).
func (g *Graph) NumVertices() int { return g.numVtx }

// NumNets returns |VB|, the number of nets (rows).
func (g *Graph) NumNets() int { return g.numNet }

// NumEdges returns the number of incidences (matrix nonzeros).
func (g *Graph) NumEdges() int64 { return int64(len(g.netAdj)) }

// Vtxs returns the sorted vertex list of net v (vtxs(v) in the paper).
// The slice aliases internal storage and must not be modified.
func (g *Graph) Vtxs(v int32) []int32 { return g.netAdj[g.netPtr[v]:g.netPtr[v+1]] }

// Nets returns the sorted net list of vertex u (nets(u) in the paper).
// The slice aliases internal storage and must not be modified.
func (g *Graph) Nets(u int32) []int32 { return g.vtxAdj[g.vtxPtr[u]:g.vtxPtr[u+1]] }

// NetDeg returns |vtxs(v)|.
func (g *Graph) NetDeg(v int32) int { return int(g.netPtr[v+1] - g.netPtr[v]) }

// VtxDeg returns |nets(u)|.
func (g *Graph) VtxDeg(u int32) int { return int(g.vtxPtr[u+1] - g.vtxPtr[u]) }

// ErrInvalidEdge reports an incidence outside the declared dimensions.
var ErrInvalidEdge = errors.New("bipartite: edge endpoint out of range")

// FromEdges builds a Graph with numNet nets and numVtx vertices from an
// incidence list. Duplicate incidences are merged. The input slice is
// not modified.
func FromEdges(numNet, numVtx int, edges []Edge) (*Graph, error) {
	if numNet < 0 || numVtx < 0 {
		return nil, fmt.Errorf("bipartite: negative dimension (%d nets, %d vertices)", numNet, numVtx)
	}
	g := &Graph{numVtx: numVtx, numNet: numNet}

	// Two stable counting sorts and no comparison sort: bucket the
	// incidences by vertex, then scatter them into their nets walking
	// the vertices in increasing order. Every net's list comes out
	// ascending with its duplicates adjacent, so one linear pass
	// dedupes it.
	vtxPtr := make([]int64, numVtx+1)
	g.netPtr = make([]int64, numNet+1)
	for _, e := range edges {
		if e.Net < 0 || int(e.Net) >= numNet || e.Vtx < 0 || int(e.Vtx) >= numVtx {
			return nil, fmt.Errorf("%w: (net=%d, vtx=%d) with %d nets, %d vertices",
				ErrInvalidEdge, e.Net, e.Vtx, numNet, numVtx)
		}
		vtxPtr[e.Vtx+1]++
		g.netPtr[e.Net+1]++
	}
	prefixSum(vtxPtr)
	prefixSum(g.netPtr)
	byVtx := make([]int32, len(edges)) // nets, bucketed by vertex
	for _, e := range edges {
		byVtx[vtxPtr[e.Vtx]] = e.Net
		vtxPtr[e.Vtx]++
	}
	// vtxPtr[u] now holds the end of u's bucket.
	adj := make([]int32, len(edges))
	lo := int64(0)
	for u := 0; u < numVtx; u++ {
		for _, v := range byVtx[lo:vtxPtr[u]] {
			adj[g.netPtr[v]] = int32(u)
			g.netPtr[v]++
		}
		lo = vtxPtr[u]
	}
	unshift(g.netPtr)
	g.netAdj = dedupeCSR(g.netPtr, adj)
	// The buckets are spent; the transpose reuses their storage.
	clear(vtxPtr)
	g.buildTranspose(vtxPtr, byVtx)
	return g, nil
}

// FromNetLists builds a Graph directly from per-net vertex lists.
// Lists may be unsorted and contain duplicates; they are not modified.
func FromNetLists(numVtx int, nets [][]int32) (*Graph, error) {
	var edges []Edge
	for v, list := range nets {
		for _, u := range list {
			edges = append(edges, Edge{Net: int32(v), Vtx: u})
		}
	}
	return FromEdges(len(nets), numVtx, edges)
}

// FromSymmetricCSR wraps one CSR (ptr of length n+1, adj holding the
// lists) as both directions of a square graph with symmetric incidence:
// net i holds vertex j iff net j holds vertex i, so Vtxs(u) and Nets(u)
// are the same list. The arrays are adopted, not copied, and must not
// be modified afterwards. The caller guarantees symmetry and
// duplicate-free lists with ids in [0, n).
//
// Unlike the other constructors it does not sort: each list keeps the
// caller's order, which matters to algorithms that treat the first
// occurrence in a net specially. graph.Closed uses this to put every
// vertex first in its own net. IsStructurallySymmetric (and so
// ComputeStats' Symmetric field) binary-searches sorted lists and is
// not meaningful on such a graph.
func FromSymmetricCSR(n int, ptr []int64, adj []int32) *Graph {
	return &Graph{numVtx: n, numNet: n, netPtr: ptr, netAdj: adj, vtxPtr: ptr, vtxAdj: adj}
}

// prefixSum turns the counts in ptr[1:] into segment start offsets.
func prefixSum(ptr []int64) {
	for i := 1; i < len(ptr); i++ {
		ptr[i] += ptr[i-1]
	}
}

// unshift restores segment starts after a scatter that advanced each
// ptr[i] to the end of segment i, i.e. the start of segment i+1.
func unshift(ptr []int64) {
	copy(ptr[1:], ptr[:len(ptr)-1])
	ptr[0] = 0
}

// dedupeCSR removes adjacent duplicates from each ascending CSR
// segment, rewrites ptr to the compacted offsets, and returns the
// compacted adjacency array.
func dedupeCSR(ptr []int64, adj []int32) []int32 {
	n := len(ptr) - 1
	var write int64
	for v := 0; v < n; v++ {
		seg := adj[ptr[v]:ptr[v+1]]
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

// buildTranspose derives the vertex-major CSR from the net-major CSR.
// It adopts ptr (numVtx+1 zeros) and adj (at least NumEdges long) as
// the vertex-major arrays.
func (g *Graph) buildTranspose(ptr []int64, adj []int32) {
	for _, u := range g.netAdj {
		ptr[u+1]++
	}
	prefixSum(ptr)
	for v := int32(0); int(v) < g.numNet; v++ {
		for _, u := range g.Vtxs(v) {
			adj[ptr[u]] = v
			ptr[u]++
		}
	}
	unshift(ptr)
	g.vtxPtr = ptr
	g.vtxAdj = adj[:len(g.netAdj):len(g.netAdj)]
	// Nets were visited in increasing order, so each vertex's net list
	// is already sorted and duplicate-free.
}

// Stats summarizes the structural properties reported in the paper's
// Table II.
type Stats struct {
	Rows int   // nets
	Cols int   // vertices
	NNZ  int64 // incidences

	MaxNetDeg    int     // max |vtxs(v)| — the "column degree" lower bound on colors
	AvgNetDeg    float64 // mean |vtxs(v)|
	StdDevNetDeg float64 // std-dev of |vtxs(v)|
	MaxVtxDeg    int     // max |nets(u)|
	Symmetric    bool    // square with pattern-symmetric incidence
}

// ComputeStats returns the Table II-style summary for g.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Rows: g.numNet, Cols: g.numVtx, NNZ: g.NumEdges()}
	var sum, sumSq float64
	for v := int32(0); int(v) < g.numNet; v++ {
		d := g.NetDeg(v)
		if d > s.MaxNetDeg {
			s.MaxNetDeg = d
		}
		sum += float64(d)
		sumSq += float64(d) * float64(d)
	}
	for u := int32(0); int(u) < g.numVtx; u++ {
		if d := g.VtxDeg(u); d > s.MaxVtxDeg {
			s.MaxVtxDeg = d
		}
	}
	if g.numNet > 0 {
		n := float64(g.numNet)
		s.AvgNetDeg = sum / n
		variance := sumSq/n - s.AvgNetDeg*s.AvgNetDeg
		if variance > 0 {
			s.StdDevNetDeg = math.Sqrt(variance)
		}
	}
	s.Symmetric = g.IsStructurallySymmetric()
	return s
}

// IsStructurallySymmetric reports whether the graph is square and its
// incidence pattern is symmetric: net i contains vertex j iff net j
// contains vertex i. D2GC experiments require this property.
func (g *Graph) IsStructurallySymmetric() bool {
	if g.numNet != g.numVtx {
		return false
	}
	for v := int32(0); int(v) < g.numNet; v++ {
		for _, u := range g.Vtxs(v) {
			if !contains(g.Vtxs(u), v) {
				return false
			}
		}
	}
	return true
}

func contains(sorted []int32, x int32) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == x
}

// ColorLowerBound returns max_v |vtxs(v)|, the trivial lower bound on
// the number of colors any valid BGPC coloring needs (all vertices of a
// net must use distinct colors).
func (g *Graph) ColorLowerBound() int {
	lb := 0
	for v := int32(0); int(v) < g.numNet; v++ {
		if d := g.NetDeg(v); d > lb {
			lb = d
		}
	}
	return lb
}

// MaxColorUpperBound returns a safe upper bound on the number of
// distinct colors any algorithm in this repository can assign:
// one more than the maximum distance-2 degree bound
// Σ_{v∈nets(u)}(|vtxs(v)|−1), clamped to NumVertices. Forbidden-color
// scratch arrays are sized with it.
func (g *Graph) MaxColorUpperBound() int {
	if g.numVtx == 0 {
		return 0
	}
	maxBound := int64(0)
	for u := int32(0); int(u) < g.numVtx; u++ {
		var b int64
		for _, v := range g.Nets(u) {
			b += int64(g.NetDeg(v) - 1)
		}
		if b > maxBound {
			maxBound = b
		}
	}
	bound := maxBound + 1
	if bound > int64(g.numVtx) {
		bound = int64(g.numVtx)
	}
	if bound < 1 {
		bound = 1
	}
	return int(bound)
}

// Edges returns all incidences in net-major order. Intended for I/O and
// tests, not hot paths.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.netAdj))
	for v := int32(0); int(v) < g.numNet; v++ {
		for _, u := range g.Vtxs(v) {
			out = append(out, Edge{Net: v, Vtx: u})
		}
	}
	return out
}

// Fingerprint returns a 64-bit FNV-1a content hash over the graph's
// dimensions and net-major CSR arrays. Because construction sorts and
// deduplicates adjacency, two graphs built from the same incidence set
// — whatever the input order or duplication — fingerprint identically,
// which makes it a usable identity for content-addressed caches (see
// internal/service). It is not cryptographic.
//
// The values are frozen: the write-ahead log keys its records by them
// and clients address deltas by them, so the hashed byte stream (each
// word as 8 little-endian bytes) must never change. testdata/
// fingerprints.txt pins them.
func (g *Graph) Fingerprint() uint64 {
	h := uint64(fnvOffset64)
	h = fnvWord(h, uint64(g.numNet))
	h = fnvWord(h, uint64(g.numVtx))
	for _, p := range g.netPtr {
		h = fnvWord(h, uint64(p))
	}
	for _, u := range g.netAdj {
		h = fnvWord(h, uint64(int64(u)))
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds the 8 little-endian bytes of w into the FNV-1a state h:
// the byte stream hash/fnv's New64a would be fed, without an interface
// call per word.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (w >> i & 0xff)) * fnvPrime64
	}
	return h
}

// Transpose returns the graph with roles swapped: former nets become
// vertices and vice versa (the matrix transpose). It shares no state
// cheaply by reusing the existing CSR arrays, so it is O(1).
func (g *Graph) Transpose() *Graph {
	return &Graph{
		numVtx: g.numNet,
		numNet: g.numVtx,
		netPtr: g.vtxPtr,
		netAdj: g.vtxAdj,
		vtxPtr: g.netPtr,
		vtxAdj: g.netAdj,
	}
}
