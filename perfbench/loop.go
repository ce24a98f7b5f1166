package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/delta"
	"bgpc/internal/verify"
)

// reply is the part of a ColorResponse or DeltaResponse the benchmark
// reads.
type reply struct {
	Colors      []int32 `json:"colors"`
	NumColors   int     `json:"num_colors"`
	CacheHit    bool    `json:"cache_hit"`
	Fingerprint string  `json:"fingerprint"`
	WallMS      float64 `json:"wall_ms"`
	QueueMS     float64 `json:"queue_ms"`
}

// httpSpan is one HTTP exchange as the client saw it. Op ties it to
// the logical op and to that op's spans in the traced replay.
type httpSpan struct {
	Op       int64   `json:"op"`
	Name     string  `json:"name"`
	StartNS  int64   `json:"start_ns"`
	EndNS    int64   `json:"end_ns"`
	Status   int     `json:"status"`
	QueueMS  float64 `json:"queue_ms"`
	WallMS   float64 `json:"wall_ms"`
	CacheHit bool    `json:"cache_hit"`
	Backend  string  `json:"backend,omitempty"`
	Rerouted bool    `json:"rerouted,omitempty"`
}

// opRecord remembers what one logical op did, so the traced replay can
// call the same layers on the same inputs in the order the service
// did.
type opRecord struct {
	id       int64
	color    *colorOp // ingest/kernel op, nil for fleet ops
	chain    *chain   // fleet op's chain
	k        int      // fleet: -1 base color, else delta index
	fallback bool     // fleet delta answered 404 and fell back to /color
}

// client is one closed-loop caller: it sends its next op only after the
// previous one has been answered and checked.
type client struct {
	id    int
	hc    *http.Client
	entry string
	t0    time.Time     // run epoch, for span timestamps
	trace bool          // record httpSpans and opRecords
	done  *atomic.Int64 // successful logical ops of all clients

	lats       []float64 // latency per successful logical op, ms
	attempted  int
	failed     int
	firstErr   error
	colorsSum  float64
	colorsN    int
	entryLats  map[string][]float64 // latency per op label (ingest, kernel)
	spans      []httpSpan
	ops        []opRecord
	delta404   int
	deltaSent  int
	cacheHits  int
	colorFresh int // 2xx /color replies (cache_hit denominator)

	// delta-fleet chain state
	cg     *chainGen
	cur    *chain
	k      int
	shadow *bipartite.Graph
	fp     string
}

func newClient(id int, hc *http.Client, entry string, t0 time.Time, trace bool) *client {
	return &client{id: id, hc: hc, entry: entry, t0: t0, trace: trace, done: new(atomic.Int64),
		entryLats: map[string][]float64{}}
}

// ok records one successful logical op of the given latency.
func (c *client) ok(dur time.Duration) float64 {
	ms := float64(dur.Nanoseconds()) / 1e6
	c.lats = append(c.lats, ms)
	c.done.Add(1)
	return ms
}

func (c *client) opID() int64 { return int64(c.id)<<32 | int64(c.attempted) }

// post sends one request and reads the whole answer.
func (c *client) post(op int64, name, url string, body []byte) (int, *reply, http.Header, time.Duration, error) {
	start := time.Now()
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, time.Since(start), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		return 0, nil, nil, dur, err
	}
	var rep *reply
	if resp.StatusCode == http.StatusOK {
		rep = &reply{}
		if err := json.Unmarshal(raw, rep); err != nil {
			return resp.StatusCode, nil, resp.Header, dur, fmt.Errorf("%s: decoding 200 body: %w", name, err)
		}
		if name != "http.delta" {
			c.colorFresh++
			if rep.CacheHit {
				c.cacheHits++
			}
		}
	}
	if c.trace {
		sp := httpSpan{Op: op, Name: name, StartNS: start.Sub(c.t0).Nanoseconds(), EndNS: start.Add(dur).Sub(c.t0).Nanoseconds(),
			Status: resp.StatusCode, Backend: resp.Header.Get("X-Bgpc-Backend"), Rerouted: resp.Header.Get("X-Bgpc-Rerouted") != ""}
		if rep != nil {
			sp.QueueMS, sp.WallMS, sp.CacheHit = rep.QueueMS, rep.WallMS, rep.CacheHit
		}
		c.spans = append(c.spans, sp)
	}
	return resp.StatusCode, rep, resp.Header, dur, nil
}

// check verifies a 2xx coloring against the benchmark's own copy of
// the graph: same fingerprint, and a valid coloring of it.
func check(t *target, r *reply) error {
	if r.Fingerprint != t.fp {
		return fmt.Errorf("%s: fingerprint %s, want %s", t.name, r.Fingerprint, t.fp)
	}
	var err error
	if t.ug != nil {
		err = verify.D2GC(t.ug, r.Colors)
	} else {
		err = verify.BGPC(t.g, r.Colors)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", t.name, err)
	}
	return nil
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// colorOnce runs one ingest or kernel op.
func (c *client) colorOnce(op *colorOp) {
	id := c.opID()
	c.attempted++
	status, rep, _, dur, err := c.post(id, "http.color", c.entry+"/color", op.body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s: status %d", op.label, status)
	}
	if err == nil {
		err = check(op.tgt, rep)
	}
	if err != nil {
		c.fail(err)
		return
	}
	c.entryLats[op.label] = append(c.entryLats[op.label], c.ok(dur))
	c.colorsSum += float64(rep.NumColors)
	c.colorsN++
	if c.trace {
		c.ops = append(c.ops, opRecord{id: id, color: op})
	}
}

// fleetOnce runs one delta-fleet logical op: a chain's cached base
// /color, or one delta of it — including, when the delta 404s, the
// full /color of the mutated graph that replaces it. colors_mean on
// this workload averages the base colorings only: which graphs the
// fallback path colors depends on the router's placement, which the
// fleet-affinity work is meant to change.
func (c *client) fleetOnce() {
	id := c.opID()
	c.attempted++
	if c.cur == nil || c.k == chainDeltas {
		ch := c.cg.draw()
		status, rep, _, dur, err := c.post(id, "http.color", c.entry+"/color", ch.base.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d", ch.base.tgt.name, status)
		}
		if err == nil {
			err = check(ch.base.tgt, rep)
		}
		if err != nil {
			c.cur = nil
			c.fail(err)
			return
		}
		c.cur, c.k, c.shadow, c.fp = ch, 0, ch.base.tgt.g, rep.Fingerprint
		c.ok(dur)
		c.colorsSum += float64(rep.NumColors)
		c.colorsN++
		if c.trace {
			c.ops = append(c.ops, opRecord{id: id, chain: ch, k: -1})
		}
		return
	}

	ch, k := c.cur, c.k
	mode := ch.base.mode
	g2, _, _, err := delta.Apply(c.shadow, delta.Delta{Insert: ch.insert[k]})
	var tgt *target
	if err == nil {
		tgt, err = newTarget(ch.base.tgt.name+"+delta", g2, mode == "d2")
	}
	if err != nil {
		c.cur = nil
		c.fail(fmt.Errorf("shadow graph: %w", err))
		return
	}
	c.deltaSent++
	status, rep, _, dur, err := c.post(id, "http.delta", c.entry+"/color/"+c.fp+"/delta", deltaBody(ch.insert[k], mode))
	fellBack := false
	if err == nil && status == http.StatusNotFound {
		c.delta404++
		fellBack = true
		var d2 time.Duration
		status, rep, _, d2, err = c.post(id, "http.fallback", c.entry+"/color", colorBody(map[string]any{"matrix": mtxText(g2)}, "N1-N2", mode))
		dur += d2
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s delta %d: status %d", ch.base.tgt.name, k, status)
	}
	if err == nil {
		err = check(tgt, rep)
	}
	if err != nil {
		c.cur = nil
		c.fail(err)
		return
	}
	c.shadow, c.fp = g2, rep.Fingerprint
	c.k++
	c.ok(dur)
	if c.trace {
		c.ops = append(c.ops, opRecord{id: id, chain: ch, k: k, fallback: fellBack})
	}
}
