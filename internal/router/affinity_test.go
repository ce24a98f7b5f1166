package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpc/internal/obs"
	"bgpc/internal/service"
	"bgpc/internal/testutil"
)

// answerFP scripts a backend that colors successfully and names
// colorFP in the fingerprint header of a /color answer and deltaFP in
// that of a delta answer, as bgpcd does.
func answerFP(colorFP, deltaFP string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fp := deltaFP
		if r.URL.Path == "/color" {
			fp = colorFP
		}
		w.Header().Set(service.FingerprintHeader, fp)
		okColorHandler(w, r)
	}
}

func postDeltaFake(t *testing.T, rt *Router, fp, body string) *httptest.ResponseRecorder {
	t.Helper()
	path := "/color/" + fp + "/delta"
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.URL = &url.URL{Path: path}
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	return w
}

// fpOwnedElsewhere returns a fingerprint whose fp: ring owner is not
// avoid, so a delta routed to avoid can only have got there by the
// affinity table.
func fpOwnedElsewhere(t *testing.T, rt *Router, avoid string) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		fp := fmt.Sprintf("%016x", i)
		if rt.Ring().Owner("fp:"+fp) != avoid {
			return fp
		}
	}
	t.Fatal("every candidate fingerprint is owned by one backend")
	return ""
}

// TestAffinityRoutesDeltaToLearnedBackend: a delta goes to the backend
// whose 200 named its base, not to the fp: ring owner. When that
// backend is ejected or its breaker is open, the delta falls through
// to the fp: ring order with the learned backend left out.
func TestAffinityRoutesDeltaToLearnedBackend(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	fleet, rt := newFleet(t, 3)
	colorOwner := rt.Ring().Owner("preset:grid:0.02")
	fp := fpOwnedElsewhere(t, rt, colorOwner)
	for _, f := range fleet {
		f.set(answerFP(fp, "00000000000fffff"))
	}

	hits, misses := obs.RtrAffinityHits.Load(), obs.RtrAffinityMisses.Load()
	if w := postColor(t, rt, jobBody, nil); w.Code != 200 || w.Header().Get("X-BGPC-Backend") != colorOwner {
		t.Fatalf("base color: status %d on %q, want 200 on %s", w.Code, w.Header().Get("X-BGPC-Backend"), colorOwner)
	}
	w := postDeltaFake(t, rt, fp, `{"insert":[[0,1]]}`)
	if w.Code != 200 || w.Header().Get("X-BGPC-Backend") != colorOwner {
		t.Fatalf("delta: status %d on %q, want 200 on the base's backend %s (fp: owner is %s)",
			w.Code, w.Header().Get("X-BGPC-Backend"), colorOwner, rt.Ring().Owner("fp:"+fp))
	}
	if w.Header().Get("X-BGPC-Rerouted") != "" {
		t.Fatal("a delta on its learned backend is marked rerouted")
	}
	if obs.RtrAffinityHits.Load() != hits+1 || obs.RtrAffinityMisses.Load() != misses {
		t.Fatalf("hits +%d misses +%d, want +1 and +0",
			obs.RtrAffinityHits.Load()-hits, obs.RtrAffinityMisses.Load()-misses)
	}

	// The fall-through target: the fp: ring order minus the learned
	// backend.
	var fallback string
	for _, m := range rt.Ring().Order("fp:" + fp) {
		if m != colorOwner {
			fallback = m
			break
		}
	}
	b := rt.backends[colorOwner]
	unavailable := map[string]func(){
		"ejected": func() {
			b.mu.Lock()
			b.state = StateEjected
			b.mu.Unlock()
		},
		"breaker-open": func() {
			for i := 0; i < 10; i++ {
				b.br.Record(false)
			}
		},
	}
	for name, makeUnavailable := range unavailable {
		makeUnavailable()
		w := postDeltaFake(t, rt, fp, `{"insert":[[0,2]]}`)
		if w.Code != 200 || w.Header().Get("X-BGPC-Backend") != fallback {
			t.Fatalf("%s learned backend: status %d on %q, want the fp: fall-through %s",
				name, w.Code, w.Header().Get("X-BGPC-Backend"), fallback)
		}
		if w.Header().Get("X-BGPC-Rerouted") == "" {
			t.Fatalf("%s learned backend: fall-through not marked rerouted", name)
		}
		b.mu.Lock()
		b.state = StateHealthy
		b.mu.Unlock()
	}
}

// TestAffinityLearnsOnlyFrom200: a 404, 429 or 5xx answer never
// teaches the table, even when it carries a fingerprint header.
func TestAffinityLearnsOnlyFrom200(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	fleet, rt := newFleet(t, 3)
	const fp = "0123456789abcdef"
	for _, status := range []int{http.StatusNotFound, http.StatusTooManyRequests, http.StatusInternalServerError} {
		for _, f := range fleet {
			f.set(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set(service.FingerprintHeader, fp)
				http.Error(w, "no", status)
			})
		}
		if w := postColor(t, rt, jobBody, nil); w.Code == 200 {
			t.Fatalf("scripted %d answered 200", status)
		}
		if w := postDeltaFake(t, rt, fp, `{"insert":[[0,1]]}`); w.Code == 200 {
			t.Fatalf("scripted %d answered 200", status)
		}
		if b, ok := rt.aff.lookup(fp); ok {
			t.Fatalf("a %d taught the table %s → %s", status, fp, b)
		}
		// Keep the 5xx round from ejecting backends for the next one.
		for _, f := range fleet {
			b := rt.backends[f.addr]
			b.mu.Lock()
			b.state, b.consecFails = StateHealthy, 0
			b.mu.Unlock()
		}
	}
}

// TestAffinityDedupFollowerCountsOnce: identical concurrent deltas
// collapse into one flight, which looks the table up once — one hit,
// however many callers rode it.
func TestAffinityDedupFollowerCountsOnce(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	fleet, rt := newFleet(t, 3)
	const fp = "00000000000000aa"
	for _, f := range fleet {
		f.set(answerFP(fp, "00000000000000bb"))
	}
	if w := postColor(t, rt, jobBody, nil); w.Code != 200 {
		t.Fatalf("base color: status %d", w.Code)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	for _, f := range fleet {
		f.set(func(w http.ResponseWriter, r *http.Request) {
			started <- struct{}{}
			<-release
			answerFP(fp, "00000000000000bb")(w, r)
		})
	}
	hits, misses := obs.RtrAffinityHits.Load(), obs.RtrAffinityMisses.Load()
	const n = 4
	var wg sync.WaitGroup
	deduped := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := postDeltaFake(t, rt, fp, `{"insert":[[0,1]]}`)
			deduped[i] = w.Header().Get("X-BGPC-Deduped") != ""
		}()
	}
	<-started
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	followers := 0
	for _, d := range deduped {
		if d {
			followers++
		}
	}
	if followers != n-1 {
		t.Fatalf("%d followers, want %d (the flights did not collapse)", followers, n-1)
	}
	if got := obs.RtrAffinityHits.Load() - hits; got != 1 {
		t.Fatalf("affinity hits +%d for one flight of %d callers, want +1", got, n)
	}
	if got := obs.RtrAffinityMisses.Load() - misses; got != 0 {
		t.Fatalf("affinity misses +%d, want +0", got)
	}
}

// TestAffinityBound: the table never holds more than two generations,
// a fingerprint in use survives rotation, and an idle one is dropped.
func TestAffinityBound(t *testing.T) {
	a := newAffinity()
	a.learn("cold", "b0")
	a.learn("hot", "b1")
	for i := 0; i < 5*affinityGen; i++ {
		a.learn(strconv.Itoa(i), "b2")
		if n := len(a.cur) + len(a.prev); n > 2*affinityGen {
			t.Fatalf("table holds %d entries after %d learns, bound is %d", n, i+3, 2*affinityGen)
		}
		if i%(affinityGen/2) == 0 {
			if b, ok := a.lookup("hot"); !ok || b != "b1" {
				t.Fatalf("hot fingerprint lost after %d learns: %q %v", i+3, b, ok)
			}
		}
	}
	if _, ok := a.lookup("cold"); ok {
		t.Fatal("an idle fingerprint outlived four rotations")
	}
}

// TestAffinityConcurrent: learns, lookups and rotations from many
// goroutines, directly and through the router, are clean under -race.
func TestAffinityConcurrent(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	a := newAffinity()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < affinityGen; i++ {
				a.learn(strconv.Itoa(g*affinityGen+i), strconv.Itoa(g))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < affinityGen; i++ {
				if b, ok := a.lookup(strconv.Itoa(i)); ok && b != "0" {
					t.Errorf("fingerprint %d maps to %q, only learner 0 wrote it", i, b)
					return
				}
			}
		}()
	}
	wg.Wait()

	fleet, rt := newFleet(t, 3)
	for _, f := range fleet {
		f.set(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(service.FingerprintHeader, fmt.Sprintf("%016x", len(r.URL.Path)+int(r.ContentLength)))
			okColorHandler(w, r)
		})
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := fmt.Sprintf(`{"preset":"grid","scale":0.%d%d}`, g+1, i)
				if w := postColor(t, rt, body, nil); w.Code != 200 {
					t.Errorf("color: status %d", w.Code)
				}
				if w := postDeltaFake(t, rt, fmt.Sprintf("%016x", i+40), body); w.Code != 200 {
					t.Errorf("delta: status %d", w.Code)
				}
			}
		}()
	}
	wg.Wait()
}
