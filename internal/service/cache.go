package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"bgpc/internal/bipartite"
	"bgpc/internal/failpoint"
	"bgpc/internal/graph"
	"bgpc/internal/obs"
)

// cacheEntry is one cached graph. The bipartite graph is immutable
// after construction, so entries are shared freely across requests;
// the closed-neighbourhood view D2GC jobs color (graph.Closed) is
// derived lazily once and memoized, since symmetry checking and the
// view's construction cost full CSR passes.
//
// The entry also memoizes the graph's fingerprint (hex) — computed once
// at construction instead of per response — and retains the latest
// verified coloring per mode ("bgpc"/"d2"), the warm-start material the
// delta-recoloring path needs. Colorings are copied on store and on
// load: the graph they were verified against is immutable, so a copy
// handed to one request can never be corrupted by another.
type cacheEntry struct {
	key string
	g   *bipartite.Graph
	fp  string // %016x of fpU, the delta-API identity
	fpU uint64 // g.Fingerprint(), the WAL identity

	closedOnce sync.Once
	closedG    *bipartite.Graph
	closedErr  error

	colorMu   sync.Mutex
	colorings map[string][]int32 // mode → verified coloring
}

// newCacheEntry wraps a graph with its memoized fingerprint. All entry
// construction goes through here so fp is never empty. An empty key
// means content-addressed: the key becomes "fp:"+fp, the form
// delta-produced graphs are cached under (their only identity is their
// content — there is no matrix body or preset to key on).
func newCacheEntry(key string, g *bipartite.Graph) *cacheEntry {
	fpU := g.Fingerprint()
	e := &cacheEntry{key: key, g: g, fp: fmt.Sprintf("%016x", fpU), fpU: fpU}
	if key == "" {
		e.key = "fp:" + e.fp
	}
	return e
}

// closed returns the memoized closed-neighbourhood view for D2GC jobs:
// BGPC on it is D2GC on the graph. It fails when g is not square and
// structurally symmetric.
func (e *cacheEntry) closed() (*bipartite.Graph, error) {
	e.closedOnce.Do(func() {
		ug, err := graph.FromBipartite(e.g)
		if err != nil {
			e.closedErr = err
			return
		}
		e.closedG = ug.Closed()
	})
	return e.closedG, e.closedErr
}

// storeColoring retains a copy of a coloring verified against e.g.
// Callers must only pass colorings that passed internal/verify for the
// given mode — the delta path serves them as warm starts.
func (e *cacheEntry) storeColoring(mode string, colors []int32) {
	cp := append([]int32(nil), colors...)
	e.colorMu.Lock()
	if e.colorings == nil {
		e.colorings = make(map[string][]int32, 2)
	}
	e.colorings[mode] = cp
	e.colorMu.Unlock()
}

// adoptColorings gives e every mode's coloring prev holds and e lacks.
// Only the fingerprint index calls it, for entries of equal
// fingerprint, i.e. content-identical graphs. Stored colorings are
// never mutated (coloring hands out copies), so the slices are shared.
func (e *cacheEntry) adoptColorings(prev *cacheEntry) {
	prev.colorMu.Lock()
	defer prev.colorMu.Unlock()
	e.colorMu.Lock()
	defer e.colorMu.Unlock()
	for mode, c := range prev.colorings {
		if _, ok := e.colorings[mode]; ok {
			continue
		}
		if e.colorings == nil {
			e.colorings = make(map[string][]int32, 2)
		}
		e.colorings[mode] = c
	}
}

// coloring returns a private copy of the retained coloring for mode.
func (e *cacheEntry) coloring(mode string) ([]int32, bool) {
	e.colorMu.Lock()
	defer e.colorMu.Unlock()
	c, ok := e.colorings[mode]
	if !ok {
		return nil, false
	}
	return append([]int32(nil), c...), true
}

// graphCache is a bounded LRU keyed by request content hash: repeated
// jobs on the same matrix (the common case for a coloring service —
// the same Jacobian pattern is recolored as an optimization iterates)
// skip MatrixMarket parsing and CSR construction entirely.
type graphCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *cacheEntry
	m   map[string]*list.Element
	// fpm indexes entries by fingerprint hex — the lookup the delta API
	// uses, since clients address deltas by the fingerprint a prior
	// ColorResponse returned. Two keys describing the same incidence
	// structure (an mtx body and an equivalent preset) share a
	// fingerprint; the most recently inserted wins, which is harmless —
	// their graphs are content-identical by construction — and takes
	// over the colorings the previous holder retained.
	fpm map[string]*list.Element
}

func newGraphCache(capacity int) *graphCache {
	if capacity <= 0 {
		return nil // disabled
	}
	return &graphCache{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[string]*list.Element),
		fpm: make(map[string]*list.Element),
	}
}

// get returns the entry for key, refreshing its recency. A nil cache
// always misses.
func (c *graphCache) get(key string) (*cacheEntry, bool) {
	if c == nil {
		return nil, false
	}
	if err := failpoint.Inject(FPCacheGet); err != nil {
		// An injected cache fault degrades to a miss: the request
		// rebuilds the graph, slower but correct.
		obs.SvcCacheMisses.Inc()
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		obs.SvcCacheHits.Inc()
		return el.Value.(*cacheEntry), true
	}
	obs.SvcCacheMisses.Inc()
	return nil, false
}

// getByFingerprint returns the entry whose graph fingerprints to fp
// (hex), refreshing its recency. It sits behind the same FPCacheGet
// failpoint as get: a chaos-rotted cache degrades delta requests into
// 404s, which clients answer with a full color — slower, still correct.
func (c *graphCache) getByFingerprint(fp string) (*cacheEntry, bool) {
	if c == nil {
		return nil, false
	}
	if err := failpoint.Inject(FPCacheGet); err != nil {
		obs.SvcCacheMisses.Inc()
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.fpm[fp]; ok {
		c.ll.MoveToFront(el)
		obs.SvcCacheHits.Inc()
		return el.Value.(*cacheEntry), true
	}
	obs.SvcCacheMisses.Inc()
	return nil, false
}

// put inserts (or refreshes) key → g and returns its entry, evicting
// the least recently used entry beyond capacity. With a nil cache it
// just wraps g so callers have a uniform entry type.
func (c *graphCache) put(key string, g *bipartite.Graph) *cacheEntry {
	return c.putEntry(newCacheEntry(key, g))
}

// putEntry is put for an already-constructed entry — the delta path
// builds its entry (mutated graph + memoized closed view +
// verified coloring) before publication, so the cache must insert it
// as-is rather than wrap the graph again.
func (c *graphCache) putEntry(e *cacheEntry) *cacheEntry {
	if c == nil {
		return e
	}
	if err := failpoint.Inject(FPCachePut); err != nil {
		// Degrade to an uncached entry; the job proceeds with it and
		// the next request for this graph just misses.
		return e
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[e.key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry)
	}
	el := c.ll.PushFront(e)
	c.m[e.key] = el
	// Latest wins on a fingerprint collision, but must not lose what
	// the index served a moment ago: a delta on this fingerprint racing
	// the publication of a colorless entry (a no-op delta's result, a
	// cold rebuild under another key) would otherwise 404.
	if prev, ok := c.fpm[e.fp]; ok {
		e.adoptColorings(prev.Value.(*cacheEntry))
	}
	c.fpm[e.fp] = el
	for c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		oldE := old.Value.(*cacheEntry)
		delete(c.m, oldE.key)
		// Only unlink the fingerprint if it still points at the evicted
		// element; a newer same-fingerprint entry must keep its index.
		if cur, ok := c.fpm[oldE.fp]; ok && cur == old {
			delete(c.fpm, oldE.fp)
		}
	}
	return e
}

// len reports the number of cached graphs.
func (c *graphCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheKey returns the graph-cache key a ColorRequest resolves to: the
// content hash of an inline matrix, or name+scale for a preset (with
// resolve's scale-0-means-1 default applied). The fleet router
// consistent-hashes the same key (ColorBody.CacheKey, on the body it
// decoded) so that requests for one graph land on the backend that
// already caches it. Requests resolve would reject key to whatever
// material they carry; the router never needs them to match anything.
func CacheKey(req *ColorRequest) string {
	return graphKey([]byte(req.Matrix), req.Preset, req.Scale)
}

// graphKey is the one definition of the graph-cache key, shared by
// CacheKey and ColorBody.CacheKey so the daemon and the router agree.
func graphKey(matrix []byte, preset string, scale float64) string {
	if len(matrix) > 0 {
		return matrixKey(matrix)
	}
	if scale == 0 {
		scale = 1.0
	}
	return presetKey(preset, scale)
}

// matrixKey is the content hash of an inline MatrixMarket body.
func matrixKey(matrix []byte) string {
	sum := sha256.Sum256(matrix)
	return "mtx:" + hex.EncodeToString(sum[:])
}

// presetKey identifies a synthetic preset job (generators are
// deterministic, so name+scale is the content).
func presetKey(name string, scale float64) string {
	return fmt.Sprintf("preset:%s:%g", name, scale)
}
