package router

import "sync"

// affinityGen is the capacity of one generation of the affinity
// table; the table holds at most twice this many fingerprints. At a
// few dozen bytes an entry the whole table stays around a few MiB,
// and 16Ki live colorings per generation is far more than the fleet's
// graph caches (64 entries per backend by default) can hold anyway.
const affinityGen = 1 << 14

// affinity maps a graph fingerprint to the backend that answered the
// 200 naming it — the backend whose cache holds that coloring — so a
// delta against the fingerprint goes where its base lives instead of
// to the fp: ring owner, which is a different ring position from the
// request key its /color was placed by.
//
// The bound is two generation maps: learn writes into cur, and when
// cur is full it becomes prev and a fresh cur starts, dropping the old
// prev wholesale. A lookup that finds its entry only in prev copies it
// into cur, so fingerprints in use survive rotation — an LRU
// approximation with O(1) operations and no per-entry list links.
type affinity struct {
	mu        sync.Mutex
	cur, prev map[string]string
}

func newAffinity() *affinity {
	return &affinity{cur: make(map[string]string)}
}

// lookup returns the backend that last served fp, if the table still
// remembers it.
func (a *affinity) lookup(fp string) (string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if b, ok := a.cur[fp]; ok {
		return b, true
	}
	b, ok := a.prev[fp]
	if ok {
		a.putLocked(fp, b)
	}
	return b, ok
}

// learn records that backend holds the coloring of fp.
func (a *affinity) learn(fp, backend string) {
	a.mu.Lock()
	a.putLocked(fp, backend)
	a.mu.Unlock()
}

func (a *affinity) putLocked(fp, backend string) {
	if _, ok := a.cur[fp]; !ok && len(a.cur) >= affinityGen {
		a.prev, a.cur = a.cur, make(map[string]string)
	}
	a.cur[fp] = backend
}
