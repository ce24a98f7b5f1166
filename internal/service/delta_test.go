package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgpc/internal/delta"
	"bgpc/internal/failpoint"
	"bgpc/internal/graph"
	"bgpc/internal/mtx"
	"bgpc/internal/obs"
	"bgpc/internal/testutil"
	"bgpc/internal/verify"
)

// symMtx is a 4×4 symmetric pattern (an undirected 4-ring), the minimal
// graph both BGPC and D2 modes accept.
const symMtx = `%%MatrixMarket matrix coordinate pattern symmetric
4 4 4
2 1
3 2
4 3
4 1
`

func postDelta(t *testing.T, s *Server, fp string, req DeltaRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/color/"+fp+"/delta", bytes.NewReader(body)))
	return w
}

func decodeDeltaResp(t *testing.T, w *httptest.ResponseRecorder) *DeltaResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp DeltaResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding delta response: %v", err)
	}
	return &resp
}

// colorFirst runs one full color and returns its response (the
// fingerprint seed for delta chains).
func colorFirst(t *testing.T, s *Server, req ColorRequest) *ColorResponse {
	t.Helper()
	w := post(t, s, req)
	if w.Code != http.StatusOK {
		t.Fatalf("full color: status %d: %s", w.Code, w.Body)
	}
	var resp ColorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// TestDeltaRecolorBGPC is the end-to-end happy path: color, mutate,
// verify the recoloring against a locally mutated graph, then chain the
// inverse delta and land back on the original fingerprint — the
// content-addressing metamorphic property, through the HTTP surface.
func TestDeltaRecolorBGPC(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	base := colorFirst(t, s, ColorRequest{Matrix: tinyMtx})

	tiny, err := mtx.Read(strings.NewReader(tinyMtx))
	if err != nil {
		t.Fatal(err)
	}
	ins := delta.EdgeList{{Net: 0, Vtx: 3}}
	w := postDelta(t, s, base.Fingerprint, DeltaRequest{Insert: ins})
	resp := decodeDeltaResp(t, w)

	g2, _, _, err := tiny.ApplyDelta(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.BGPC(g2, resp.Colors); err != nil {
		t.Fatalf("delta coloring invalid on mutated graph: %v", err)
	}
	if resp.BaseFingerprint != base.Fingerprint {
		t.Fatalf("base fingerprint %s, want %s", resp.BaseFingerprint, base.Fingerprint)
	}
	if want := fmt.Sprintf("%016x", g2.Fingerprint()); resp.Fingerprint != want {
		t.Fatalf("new fingerprint %s, want locally computed %s", resp.Fingerprint, want)
	}
	if resp.Inserted != 1 || resp.Dirty != 1 || resp.TotalVertices != 4 {
		t.Fatalf("counts: %+v", resp)
	}
	if resp.RequestID == "" {
		t.Fatal("delta response missing request id")
	}

	// Inverse delta: remove the inserted edge; the chain must land back
	// on the original fingerprint.
	w = postDelta(t, s, resp.Fingerprint, DeltaRequest{Remove: ins})
	back := decodeDeltaResp(t, w)
	if back.Fingerprint != base.Fingerprint {
		t.Fatalf("inverse delta fingerprint %s, want original %s", back.Fingerprint, base.Fingerprint)
	}
	if back.Removed != 1 || back.Dirty != 0 {
		t.Fatalf("inverse counts: %+v", back)
	}
	if err := verify.BGPC(tiny, back.Colors); err != nil {
		t.Fatalf("inverse delta coloring invalid: %v", err)
	}
}

// TestDeltaRecolorD2 covers the distance-2 path: symmetric base,
// symmetric delta, coloring verified against the locally derived
// undirected view of the mutated graph.
func TestDeltaRecolorD2(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	base := colorFirst(t, s, ColorRequest{Matrix: symMtx, Mode: "d2"})

	sym, err := mtx.Read(strings.NewReader(symMtx))
	if err != nil {
		t.Fatal(err)
	}
	// A chord across the ring, mirrored to keep the pattern symmetric.
	ins := delta.EdgeList{{Net: 0, Vtx: 2}, {Net: 2, Vtx: 0}}
	w := postDelta(t, s, base.Fingerprint, DeltaRequest{Insert: ins, Mode: "d2"})
	resp := decodeDeltaResp(t, w)

	g2, _, _, err := sym.ApplyDelta(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	ug2, err := graph.FromBipartite(g2)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.D2GC(ug2, resp.Colors); err != nil {
		t.Fatalf("d2 delta coloring invalid: %v", err)
	}
	if resp.Dirty != 2 {
		t.Fatalf("d2 dirty set %d, want both endpoints", resp.Dirty)
	}
}

// TestDeltaMiss404 pins the fallback contract: unknown fingerprints get
// 404 with the full-color retry hint, and the miss counter moves.
func TestDeltaMiss404(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	misses0 := obs.SvcDeltaMisses.Load()
	w := postDelta(t, s, "0123456789abcdef", DeltaRequest{Insert: delta.EdgeList{{Net: 0, Vtx: 0}}})
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", w.Code, w.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatalf("404 body: %v", err)
	}
	if !strings.Contains(er.Error, "POST /color") {
		t.Fatalf("404 without retry hint: %q", er.Error)
	}
	if obs.SvcDeltaMisses.Load() != misses0+1 {
		t.Fatal("miss counter did not move")
	}

	// Cached graph but no coloring in the requested mode: also a 404.
	base := colorFirst(t, s, ColorRequest{Matrix: symMtx}) // bgpc only
	w = postDelta(t, s, base.Fingerprint, DeltaRequest{Insert: delta.EdgeList{{Net: 0, Vtx: 2}}, Mode: "d2"})
	if w.Code != http.StatusNotFound {
		t.Fatalf("mode-miss status %d, want 404: %s", w.Code, w.Body)
	}
}

// TestDeltaDisabledCache404s: with caching off there is never a base to
// delta against; the endpoint must degrade to a clean 404, not a panic.
func TestDeltaDisabledCache404s(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	base := colorFirst(t, s, ColorRequest{Matrix: tinyMtx})
	w := postDelta(t, s, base.Fingerprint, DeltaRequest{Insert: delta.EdgeList{{Net: 0, Vtx: 3}}})
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", w.Code, w.Body)
	}
}

// TestDeltaBadRequests sweeps the 400 surface of the delta decoder and
// the apply path.
func TestDeltaBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	base := colorFirst(t, s, ColorRequest{Matrix: tinyMtx})

	cases := []struct {
		name string
		fp   string
		body string
	}{
		{"malformed-fingerprint", "xyz", `{"insert":[[0,1]]}`},
		{"uppercase-fingerprint", strings.ToUpper(base.Fingerprint), `{"insert":[[0,1]]}`},
		{"bad-json", base.Fingerprint, `{"insert":`},
		{"empty-delta", base.Fingerprint, `{}`},
		{"overlap", base.Fingerprint, `{"insert":[[0,1]],"remove":[[0,1]]}`},
		{"bad-pair", base.Fingerprint, `{"insert":[[0,1,2]]}`},
		{"negative-endpoint", base.Fingerprint, `{"insert":[[-1,0]]}`},
		{"negative-timeout", base.Fingerprint, `{"insert":[[0,1]],"timeout_ms":-1}`},
		{"bad-mode", base.Fingerprint, `{"insert":[[0,1]],"mode":"d3"}`},
		{"out-of-range-edge", base.Fingerprint, `{"insert":[[999,999]]}`},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("POST", "/color/"+c.fp+"/delta", strings.NewReader(c.body)))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", c.name, w.Code, w.Body)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Errorf("%s: 400 without structured error: %s", c.name, w.Body)
		}
	}
}

// TestDeltaBreaksSymmetry: a d2 delta whose mutation destroys the
// structural symmetry the mode requires is the client's defect — 400,
// and nothing gets cached under the would-be new fingerprint.
func TestDeltaBreaksSymmetry(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	base := colorFirst(t, s, ColorRequest{Matrix: symMtx, Mode: "d2"})
	w := postDelta(t, s, base.Fingerprint, DeltaRequest{Insert: delta.EdgeList{{Net: 0, Vtx: 2}}, Mode: "d2"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("asymmetric d2 delta: status %d, want 400: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "symmetr") {
		t.Fatalf("400 body does not explain the symmetry failure: %s", w.Body)
	}
}

// TestDeltaConcurrentClients is the concurrency satellite: N clients
// chain interleaved deltas starting from one shared fingerprint while
// racing on the cache. Every 200 must verify against the locally
// reconstructed mutated graph and carry its locally computed
// fingerprint (content addressing under contention), and the gauges
// must return to baseline. Run under -race (CI's service job).
func TestDeltaConcurrentClients(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	base := colorFirst(t, s, ColorRequest{Matrix: tinyMtx})
	tiny, err := mtx.Read(strings.NewReader(tinyMtx))
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const steps = 5
	var wg sync.WaitGroup
	var served atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client walks its own delta chain from the shared base;
			// localG mirrors what the daemon should be computing.
			fp := base.Fingerprint
			localG := tiny
			for i := 0; i < steps; i++ {
				// Toggle a client-specific edge so chains collide on the
				// base fingerprint but diverge in content.
				e := delta.EdgeList{{Net: int32(c % 3), Vtx: int32(3 - i%2)}}
				req := DeltaRequest{Insert: e}
				if i%2 == 1 {
					req = DeltaRequest{Remove: e}
				}
				w := postDelta(t, s, fp, req)
				if w.Code == http.StatusTooManyRequests {
					continue // backpressure is a legal outcome under the storm
				}
				resp := decodeDeltaResp(t, w)
				g2, _, _, err := localG.ApplyDelta(req.Insert, req.Remove)
				if err != nil {
					t.Errorf("client %d step %d: local apply: %v", c, i, err)
					return
				}
				if want := fmt.Sprintf("%016x", g2.Fingerprint()); resp.Fingerprint != want {
					t.Errorf("client %d step %d: fingerprint %s, want %s", c, i, resp.Fingerprint, want)
					return
				}
				if err := verify.BGPC(g2, resp.Colors); err != nil {
					t.Errorf("client %d step %d: cache served invalid coloring: %v", c, i, err)
					return
				}
				fp, localG = resp.Fingerprint, g2
				served.Add(1)
			}
		}(c)
	}
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("no delta was served — test is vacuous")
	}
	testutil.WaitFor(t, testutil.Scale(5*time.Second), func() bool {
		return s.QueueDepth() == 0 && s.ActiveJobs() == 0 && s.BytesInFlight() == 0
	}, "gauges did not return to baseline: depth=%d active=%d bytes=%d",
		s.QueueDepth(), s.ActiveJobs(), s.BytesInFlight())
}

// TestChaosDelta extends the chaos battery over the delta path: the
// delta.apply failpoint (err, panic, delay) plus cache rot are armed
// while clients interleave full colors and deltas. Contract: every
// response is structured (200 verified, 404 falls back, 4xx/5xx carry
// JSON errors), and after the storm the gauges are at baseline and the
// delta path works again.
func TestChaosDelta(t *testing.T) {
	schedules := []struct {
		name string
		spec string
	}{
		{"apply-errs", delta.FPApply + "=err@4#1"},
		{"apply-panics", delta.FPApply + "=panic@3#1"},
		{"apply-stragglers+cache-rot", delta.FPApply + "=delay:2ms@12;" + FPCacheGet + "=err@6#2"},
	}
	const clients = 6
	const perClient = 5

	for _, sched := range schedules {
		sched := sched
		t.Run(sched.name, func(t *testing.T) {
			testutil.CheckGoroutineLeaks(t)
			s := newTestServer(t, Config{Workers: 4, QueueDepth: 32, QuarantineFor: time.Minute})
			base := colorFirst(t, s, ColorRequest{Matrix: tinyMtx})
			tiny, err := mtx.Read(strings.NewReader(tinyMtx))
			if err != nil {
				t.Fatal(err)
			}
			arm(t, sched.spec)

			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						e := delta.EdgeList{{Net: int32((c + i) % 3), Vtx: 3}}
						w := postDelta(t, s, base.Fingerprint, DeltaRequest{Insert: e})
						switch w.Code {
						case http.StatusOK:
							var resp DeltaResponse
							if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
								t.Errorf("[%s] 200 with unparseable body: %v", sched.name, err)
								continue
							}
							g2, _, _, err := tiny.ApplyDelta(e, nil)
							if err != nil {
								t.Errorf("[%s] local apply: %v", sched.name, err)
								continue
							}
							if err := verify.BGPC(g2, resp.Colors); err != nil {
								t.Errorf("[%s] 200 with invalid coloring: %v", sched.name, err)
							}
						case http.StatusNotFound, http.StatusBadRequest,
							http.StatusTooManyRequests, http.StatusInternalServerError,
							http.StatusServiceUnavailable:
							var er ErrorResponse
							if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
								t.Errorf("[%s] %d with no structured error: %q", sched.name, w.Code, w.Body)
							}
						default:
							t.Errorf("[%s] unexpected status %d: %q", sched.name, w.Code, w.Body)
						}
					}
				}(c)
			}
			wg.Wait()

			failpoint.Reset()
			testutil.WaitFor(t, testutil.Scale(5*time.Second), func() bool {
				return s.QueueDepth() == 0 && s.ActiveJobs() == 0 && s.BytesInFlight() == 0
			}, "gauges did not return to baseline: depth=%d active=%d bytes=%d",
				s.QueueDepth(), s.ActiveJobs(), s.BytesInFlight())

			// The delta path must be serviceable after the storm. The
			// fingerprint may have been quarantined by panic schedules;
			// re-color to clear state and drive one clean delta.
			fresh := colorFirst(t, s, ColorRequest{Matrix: symMtx})
			w := postDelta(t, s, fresh.Fingerprint, DeltaRequest{Insert: delta.EdgeList{{Net: 0, Vtx: 2}}})
			if w.Code != http.StatusOK {
				t.Fatalf("[%s] probe delta after storm: status %d: %s", sched.name, w.Code, w.Body)
			}
		})
	}
}

// TestDeltaVariantLatencySeries pins that delta traffic lands in its
// own latency-histogram series ("delta" / "delta/d2"), the split the
// load harness's SLO reports rely on.
func TestDeltaVariantLatencySeries(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	base := colorFirst(t, s, ColorRequest{Matrix: tinyMtx})
	before := obs.SvcLatency.With("delta").Snapshot().Count
	w := postDelta(t, s, base.Fingerprint, DeltaRequest{Insert: delta.EdgeList{{Net: 0, Vtx: 3}}})
	decodeDeltaResp(t, w)
	if got := obs.SvcLatency.With("delta").Snapshot().Count; got != before+1 {
		t.Fatalf("delta latency series count %d, want %d", got, before+1)
	}
}

// TestFingerprintHeader: every 200 of a coloring endpoint names its
// graph in FingerprintHeader — the same value as the body's
// fingerprint, on a cache miss, a cache hit and a delta — and no error
// response carries the header.
func TestFingerprintHeader(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	header := func(w *httptest.ResponseRecorder) string { return w.Header().Get(FingerprintHeader) }

	for _, wantHit := range []bool{false, true} {
		w := post(t, s, ColorRequest{Matrix: tinyMtx})
		resp := decode(t, w)
		if resp.CacheHit != wantHit {
			t.Fatalf("cache_hit=%v, want %v", resp.CacheHit, wantHit)
		}
		if got := header(w); got == "" || got != resp.Fingerprint {
			t.Fatalf("cache_hit=%v: header %q, body fingerprint %q", wantHit, got, resp.Fingerprint)
		}
	}
	base := colorFirst(t, s, ColorRequest{Matrix: tinyMtx})
	w := postDelta(t, s, base.Fingerprint, DeltaRequest{Insert: delta.EdgeList{{Net: 0, Vtx: 3}}})
	resp := decodeDeltaResp(t, w)
	if got := header(w); got == "" || got != resp.Fingerprint || got == base.Fingerprint {
		t.Fatalf("delta: header %q, body fingerprint %q, base %q", got, resp.Fingerprint, base.Fingerprint)
	}

	errs := map[string]*httptest.ResponseRecorder{
		"color 400": post(t, s, ColorRequest{Matrix: "garbage"}),
		"delta 404": postDelta(t, s, "00000000000000aa", DeltaRequest{Insert: delta.EdgeList{{Net: 0, Vtx: 3}}}),
		"delta 400": postDelta(t, s, base.Fingerprint, DeltaRequest{Insert: delta.EdgeList{{Net: 99, Vtx: 3}}}),
	}
	arm(t, FPHandleColor+"=err@1")
	errs["color 500"] = post(t, s, ColorRequest{Matrix: tinyMtx})
	arm(t, FPBeforeRun+"=panic@1")
	errs["delta 500"] = postDelta(t, s, base.Fingerprint, DeltaRequest{Insert: delta.EdgeList{{Net: 1, Vtx: 0}}})
	for name, w := range errs {
		if want := name[len(name)-3:]; strconv.Itoa(w.Code) != want {
			t.Fatalf("%s: status %d: %s", name, w.Code, w.Body)
		}
		if got := header(w); got != "" {
			t.Fatalf("%s (status %d) carries %s %q", name, w.Code, FingerprintHeader, got)
		}
	}
}
