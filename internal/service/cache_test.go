package service

import (
	"fmt"
	"testing"

	"bgpc/internal/bipartite"
	"bgpc/internal/gen"
)

func testGraph(t testing.TB) *bipartite.Graph {
	t.Helper()
	g, err := bipartite.FromNetLists(4, [][]int32{{0, 1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphCacheHitAndEviction(t *testing.T) {
	c := newGraphCache(2)
	g := testGraph(t)

	if _, hit := c.get("a"); hit {
		t.Fatal("hit on empty cache")
	}
	ea := c.put("a", g)
	if got, hit := c.get("a"); !hit || got != ea {
		t.Fatal("miss after put")
	}
	c.put("b", g)
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	c.get("a")
	c.put("c", g)
	if _, hit := c.get("b"); hit {
		t.Fatal("LRU victim b survived")
	}
	if _, hit := c.get("a"); !hit {
		t.Fatal("recently used a was evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestGraphCachePutExistingKeepsEntry(t *testing.T) {
	c := newGraphCache(2)
	g := testGraph(t)
	e1 := c.put("k", g)
	e2 := c.put("k", testGraph(t))
	if e1 != e2 {
		t.Fatal("re-put replaced the entry for an identical key")
	}
}

func TestGraphCacheDisabled(t *testing.T) {
	c := newGraphCache(-1)
	if c != nil {
		t.Fatal("negative capacity should disable the cache")
	}
	g := testGraph(t)
	if _, hit := c.get("a"); hit {
		t.Fatal("nil cache hit")
	}
	e := c.put("a", g)
	if e == nil || e.g != g {
		t.Fatal("nil cache put must still wrap the graph")
	}
	if c.len() != 0 {
		t.Fatal("nil cache has a length")
	}
}

func TestCacheEntryClosedMemoized(t *testing.T) {
	b, err := gen.Preset("channel", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	e := &cacheEntry{g: b}
	c1, err1 := e.closed()
	c2, err2 := e.closed()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if c1 != c2 {
		t.Fatal("closed view rebuilt instead of memoized")
	}
	if c1.NumNets() != b.NumNets() || c1.NumVertices() != b.NumVertices() {
		t.Fatalf("closed view is %dx%d, graph is %dx%d", c1.NumNets(), c1.NumVertices(), b.NumNets(), b.NumVertices())
	}

	asym, err := bipartite.FromEdges(2, 2, []bipartite.Edge{{Net: 0, Vtx: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&cacheEntry{g: asym}).closed(); err == nil {
		t.Fatal("closed view of an asymmetric graph accepted")
	}
}

func TestCacheKeys(t *testing.T) {
	if matrixKey([]byte("a")) == matrixKey([]byte("b")) {
		t.Fatal("distinct matrices share a key")
	}
	if matrixKey([]byte("a")) != matrixKey([]byte("a")) {
		t.Fatal("matrix key not deterministic")
	}
	if presetKey("channel", 1) == presetKey("channel", 0.5) {
		t.Fatal("distinct scales share a key")
	}
	if presetKey("channel", 1) == presetKey("nlpkkt", 1) {
		t.Fatal("distinct presets share a key")
	}
	// Keys must be namespaced so an inline matrix can never collide
	// with a preset spec.
	if fmt.Sprintf("%.4s", matrixKey([]byte("x"))) == fmt.Sprintf("%.4s", presetKey("x", 1)) {
		t.Fatal("matrix and preset keys share a namespace")
	}
}

// TestFingerprintIndexKeepsColorings is the regression test for the
// delta-publish race behind rare "has no cached bgpc coloring" 404s.
// A no-op delta's result has its base's fingerprint, and so does a
// cold rebuild of a cached graph under another key. Publishing such an
// entry repoints the fingerprint index at it; if that entry has no
// coloring yet, a concurrent delta on the fingerprint finds none.
func TestFingerprintIndexKeepsColorings(t *testing.T) {
	c := newGraphCache(4)
	base := c.put("mtx:base", testGraph(t))
	base.storeColoring("bgpc", []int32{0, 1, 2, 0})

	assertColored := func(step string) {
		t.Helper()
		e, ok := c.getByFingerprint(base.fp)
		if !ok {
			t.Fatalf("%s: fingerprint %s not indexed", step, base.fp)
		}
		if _, ok := e.coloring("bgpc"); !ok {
			t.Fatalf("%s: fingerprint %s now resolves to an entry without its bgpc coloring", step, base.fp)
		}
	}
	// The no-op delta's result entry, under its content-addressed key.
	c.putEntry(newCacheEntry("", testGraph(t)))
	assertColored("no-op delta publish")
	// buildGraph's put of the same graph under a new key, before the
	// job colors it.
	c.put("preset:same", testGraph(t))
	assertColored("cold build publish")

	// A coloring the newer entry holds itself is not overwritten.
	fresh := newCacheEntry("mtx:fresh", testGraph(t))
	fresh.storeColoring("bgpc", []int32{1, 0, 2, 1})
	c.putEntry(fresh)
	e, _ := c.getByFingerprint(base.fp)
	if got, _ := e.coloring("bgpc"); got[0] != 1 {
		t.Fatalf("publish replaced the new entry's own coloring with the old one: %v", got)
	}
}
