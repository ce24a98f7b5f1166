package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/gen"
	"bgpc/internal/obs"
	"bgpc/internal/rng"
	"bgpc/internal/service"
	"bgpc/internal/testutil"
)

// This file is the fleet differential test: one seeded schedule of
// delta chains, replayed against a single daemon and through the router
// over three daemons, must get the same answer at every step. A chain
// is a /color of a base graph followed by deltas, each addressed at the
// fingerprint the previous answer returned — the way a graph-editing
// client drives the service — so every delta after the first depends
// on the router sending it where the previous step ran.

// diffChain is one chain of the schedule: its base request and the
// inserts of each delta.
type diffChain struct {
	base   service.ColorRequest
	deltas [][]bipartite.Edge
}

// diffStep is one request of the schedule: step 0 of a chain is its
// base /color, step k its k-th delta.
type diffStep struct{ chain, step int }

// diffSchedule builds the seeded schedule: bgpc chains on channel and
// movielens scale rungs plus one d2 chain, each of deltas deltas of
// three inserts (mirrored pairs in d2 mode), interleaved in a seeded
// order that keeps each chain's own steps in sequence.
func diffSchedule(t *testing.T, seed uint64, deltas int) ([]diffChain, []diffStep) {
	t.Helper()
	r := rng.New(seed)
	type base struct {
		preset, mode string
		scale        float64
	}
	var bases []base
	for _, p := range []string{"channel", "movielens"} {
		rungs, err := gen.ScaleRungs(p, 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range rungs {
			bases = append(bases, base{preset: p, scale: sc})
		}
	}
	bases = append(bases, base{preset: "channel", scale: 0.06, mode: "d2"})

	chains := make([]diffChain, len(bases))
	var pending []int // one entry per remaining step, by chain
	for i, b := range bases {
		rows, cols, _, err := gen.EstimateDims(b.preset, b.scale)
		if err != nil {
			t.Fatal(err)
		}
		c := diffChain{base: service.ColorRequest{Preset: b.preset, Scale: b.scale, Mode: b.mode, Threads: 1}}
		for k := 0; k < deltas; k++ {
			var ins []bipartite.Edge
			for len(ins) < 3 {
				e := bipartite.Edge{Net: int32(r.Intn(rows)), Vtx: int32(r.Intn(cols))}
				ins = append(ins, e)
				if b.mode == "d2" && e.Net != e.Vtx {
					ins = append(ins, bipartite.Edge{Net: e.Vtx, Vtx: e.Net})
				}
			}
			c.deltas = append(c.deltas, ins)
		}
		chains[i] = c
		for k := 0; k <= deltas; k++ {
			pending = append(pending, i)
		}
	}
	r.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
	next := make([]int, len(chains))
	steps := make([]diffStep, len(pending))
	for i, c := range pending {
		steps[i] = diffStep{chain: c, step: next[c]}
		next[c]++
	}
	return chains, steps
}

// diffAnswer is what one step returned: the status, and on a 200 the
// fingerprint and color count.
type diffAnswer struct {
	status    int
	fp        string
	numColors int
}

// diffRun replays the schedule against baseURL and returns each step's
// answer plus how far the process-wide delta-applied counter advanced.
// A chain whose step failed stops there: its later deltas have no
// fingerprint to address.
func diffRun(t *testing.T, baseURL string, chains []diffChain, steps []diffStep) ([]diffAnswer, int64) {
	t.Helper()
	applied := obs.SvcDeltaApplied.Load()
	tips := make([]string, len(chains))
	out := make([]diffAnswer, len(steps))
	for i, s := range steps {
		c := chains[s.chain]
		path, req := "/color", any(c.base)
		if s.step > 0 {
			if tips[s.chain] == "" {
				continue
			}
			path = "/color/" + tips[s.chain] + "/delta"
			req = service.DeltaRequest{Insert: c.deltas[s.step-1], Mode: c.base.Mode}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(baseURL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ans struct {
			Fingerprint string `json:"fingerprint"`
			NumColors   int    `json:"num_colors"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		out[i] = diffAnswer{status: resp.StatusCode, fp: ans.Fingerprint, numColors: ans.NumColors}
		tips[s.chain] = ans.Fingerprint
	}
	return out, obs.SvcDeltaApplied.Load() - applied
}

// TestFleetDeltaDifferential: the same seeded delta-chain schedule gets
// the same answers — status, fingerprint and color count at every step
// — from a single daemon and from the router over three daemons, the
// fleet run applies every delta the single run applies, and no delta
// 404s. No backend is killed: any difference is placement. The
// backends have fixed ring names (resolved to their listeners by the
// router's transport), so placement repeats from run to run.
func TestFleetDeltaDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fleet run")
	}
	testutil.CheckGoroutineLeaks(t)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	daemon := func() string {
		srv := service.New(service.Config{Workers: 2, Log: quiet})
		ts := httptest.NewServer(srv)
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), testutil.Scale(5*time.Second))
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		})
		return ts.URL
	}

	names := []string{"bgpcd-a:8972", "bgpcd-b:8972", "bgpcd-c:8972"}
	addrs := map[string]string{}
	for _, n := range names {
		addrs[n] = strings.TrimPrefix(daemon(), "http://")
	}
	var dialer net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, hostport string) (net.Conn, error) {
		if a, ok := addrs[hostport]; ok {
			hostport = a
		}
		return dialer.DialContext(ctx, network, hostport)
	}}
	rt, err := New(Config{
		Backends:  names,
		Transport: tr,
		Health:    HealthConfig{ProbeInterval: time.Hour},
		Log:       quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	t.Cleanup(tr.CloseIdleConnections)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	const deltas = 6
	chains, steps := diffSchedule(t, 1414, deltas)
	single, singleApplied := diffRun(t, daemon(), chains, steps)
	fleet, fleetApplied := diffRun(t, front.URL, chains, steps)

	want := int64(len(chains) * deltas)
	if singleApplied != want {
		t.Fatalf("single daemon applied %d deltas, want all %d", singleApplied, want)
	}
	var fleet404 int
	for i, s := range steps {
		if fleet[i].status == http.StatusNotFound && s.step > 0 {
			fleet404++
		}
	}
	if fleet404 != 0 {
		t.Errorf("%d of %d fleet deltas answered 404: the router sent them away from their base", fleet404, want)
	}
	if fleetApplied != singleApplied {
		t.Errorf("fleet applied %d deltas, single daemon %d", fleetApplied, singleApplied)
	}
	for i, s := range steps {
		if fleet[i] != single[i] {
			t.Errorf("chain %d step %d: fleet answered %+v, single daemon %+v", s.chain, s.step, fleet[i], single[i])
		}
	}
	t.Logf("%d chains × %d deltas: fleet applied %d, single daemon %d", len(chains), deltas, fleetApplied, singleApplied)
}
