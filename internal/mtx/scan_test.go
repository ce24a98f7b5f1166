package mtx

import (
	"bytes"
	"strings"
	"testing"

	"bgpc/internal/bipartite"
	"bgpc/internal/gen"
	"bgpc/internal/limits"
)

// presetText is the MatrixMarket text of a preset graph, as Write
// emits it (pattern general, one entry per incidence).
func presetText(tb testing.TB, name string, scale float64) (string, *bipartite.Graph) {
	tb.Helper()
	g, err := gen.Preset(name, scale)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		tb.Fatal(err)
	}
	return buf.String(), g
}

// edgeGrowths counts the reallocations appending n edges to ReadLimited's
// start-small edge slice costs.
func edgeGrowths(n int) int {
	edges := make([]bipartite.Edge, 0, 4096)
	grows := 0
	for i := 0; i < n; i++ {
		c := cap(edges)
		edges = append(edges, bipartite.Edge{})
		if cap(edges) != c {
			grows++
		}
	}
	return grows
}

// TestReadLimitedAllocsFlat pins the parser to O(1) allocations plus
// the edge slice's geometric growth: two inputs 5× apart in nonzeros
// may differ in allocation count only by the extra growth steps (give
// or take a stray runtime allocation AllocsPerRun also counts), never
// by anything per entry line.
func TestReadLimitedAllocsFlat(t *testing.T) {
	lim := limits.DefaultParseLimits()
	measure := func(scale float64) (allocs float64, nnz int) {
		text, g := presetText(t, "channel", scale)
		allocs = testing.AllocsPerRun(10, func() {
			if _, err := ReadLimited(strings.NewReader(text), lim); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, int(g.NumEdges())
	}
	small, smallNNZ := measure(0.1)
	big, bigNNZ := measure(0.5)
	if bigNNZ < 5*smallNNZ {
		t.Fatalf("inputs only %d vs %d nonzeros apart, want ≥5×", bigNNZ, smallNNZ)
	}
	growth := float64(edgeGrowths(bigNNZ) - edgeGrowths(smallNNZ))
	if big-small > growth+2 {
		t.Fatalf("allocations %v at %d nnz, %v at %d nnz: a difference of %v, the edge slice's growth accounts for %v",
			small, smallNNZ, big, bigNNZ, big-small, growth)
	}
	if big > 64 {
		t.Fatalf("ReadLimited made %v allocations for %d nonzeros, want ≤ 64", big, bigNNZ)
	}
}

// TestPeekInfoSmallBuffer pins the header peek to a small read buffer:
// it runs on the request goroutine for every inline matrix.
func TestPeekInfoSmallBuffer(t *testing.T) {
	text, _ := presetText(t, "channel", 0.1)
	allocated := allocDelta(func() {
		if _, err := PeekInfo(strings.NewReader(text), limits.DefaultParseLimits()); err != nil {
			t.Fatal(err)
		}
	})
	if allocated > 8<<10 {
		t.Fatalf("PeekInfo allocated %d bytes, want ≤ 8 KiB", allocated)
	}
}

func BenchmarkReadLimited(b *testing.B) {
	text, _ := presetText(b, "channel", 0.1)
	lim := limits.DefaultParseLimits()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadLimited(strings.NewReader(text), lim); err != nil {
			b.Fatal(err)
		}
	}
}
