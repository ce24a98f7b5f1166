package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/core"
	"bgpc/internal/d2"
	"bgpc/internal/delta"
	"bgpc/internal/graph"
	"bgpc/internal/limits"
	"bgpc/internal/mtx"
	"bgpc/internal/service"
	"bgpc/internal/verify"
	"bgpc/internal/wal"
)

// The traced run's second half: the ops the traced HTTP pass ran are
// replayed on one goroutine by calling each layer's public function
// directly, in the order the service calls them, with every call
// wrapped in a span. Spans live in memory until the run ends.

// span is one timed layer call. Op is the logical op id the HTTP span
// of the same op carries; Parent is 0 for an op's root span.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Allocs  int64  `json:"allocs"` // heap objects allocated inside, children included
	// TracerNS is time the tracer itself spent inside this span,
	// around its children's boundaries.
	TracerNS int64              `json:"tracer_ns,omitempty"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
	ms    runtime.MemStats
}

// begin opens a span. Allocation counts come from ReadMemStats, which
// flushes the per-P caches and so counts exactly. It is read outside
// the span's own interval; the time it takes inside the parent's is
// charged to the parent's TracerNS, which self time excludes.
func (t *tracer) begin(op, parent int64, name string) int {
	before := time.Since(t.t0).Nanoseconds()
	runtime.ReadMemStats(&t.ms)
	start := time.Since(t.t0).Nanoseconds()
	if parent != 0 {
		t.spans[parent-1].TracerNS += start - before
	}
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Name: name,
		Allocs: -int64(t.ms.Mallocs), StartNS: start})
	return len(t.spans) - 1
}

func (t *tracer) end(i int, kv ...any) {
	end := time.Since(t.t0).Nanoseconds()
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[i]
	s.EndNS = end
	s.Allocs += int64(t.ms.Mallocs)
	if s.Parent != 0 {
		t.spans[s.Parent-1].TracerNS += time.Since(t.t0).Nanoseconds() - end
	}
	if len(kv) > 0 {
		s.Counts = map[string]float64{}
		for j := 0; j+1 < len(kv); j += 2 {
			s.Counts[kv[j].(string)] = toFloat(kv[j+1])
		}
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	case time.Duration:
		return float64(x.Nanoseconds())
	}
	panic(fmt.Sprintf("span count of type %T", v))
}

// replayer holds the per-op state the direct calls need.
type replayer struct {
	tr  *tracer
	lim limits.ParseLimits
	wal *wal.Log // fleet only: a private log with bgpcd's defaults
	dir string

	// per fleet chain: the graph and coloring the replay produced last
	g      map[*chain]*bipartite.Graph
	colors map[*chain][]int32
}

func (r *replayer) root(op int64, name string) int { return r.tr.begin(op, 0, name) }

func (r *replayer) child(op int64, root int, name string) int {
	return r.tr.begin(op, r.tr.spans[root].ID, name)
}

// decodeColor is the service's decode step for POST /color.
func (r *replayer) decodeColor(op int64, root int, body []byte) (*service.ColorRequest, error) {
	s := r.child(op, root, "service.decode")
	var req service.ColorRequest
	err := json.Unmarshal(body, &req)
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = r.child(op, root, "service.cache_key")
	service.CacheKey(&req)
	r.tr.end(s)
	return &req, nil
}

// build parses an inline matrix the way the service's cache miss does,
// then re-runs the CSR build alone on the parsed edges to isolate it
// (bipartite.from_edges is part of mtx.read's time, measured again).
func (r *replayer) build(op int64, root int, matrix string) (*bipartite.Graph, uint64, error) {
	s := r.child(op, root, "mtx.peek")
	_, err := mtx.PeekInfo(strings.NewReader(matrix), r.lim)
	r.tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	s = r.child(op, root, "mtx.read")
	g, err := mtx.ReadLimited(strings.NewReader(matrix), r.lim)
	r.tr.end(s, "bytes", len(matrix))
	if err != nil {
		return nil, 0, err
	}
	edges := g.Edges()
	s = r.child(op, root, "bipartite.from_edges")
	g2, err := bipartite.FromEdges(g.NumNets(), g.NumVertices(), edges)
	r.tr.end(s, "edges", len(edges))
	if err != nil {
		return nil, 0, err
	}
	return g, r.fingerprint(op, root, g2), nil
}

func (r *replayer) fingerprint(op int64, root int, g *bipartite.Graph) uint64 {
	s := r.child(op, root, "bipartite.fingerprint")
	fp := g.Fingerprint()
	r.tr.end(s)
	return fp
}

func (r *replayer) undirected(op int64, root int, g *bipartite.Graph) (*graph.Graph, error) {
	s := r.child(op, root, "graph.from_bipartite")
	ug, err := graph.FromBipartite(g)
	r.tr.end(s)
	return ug, err
}

// color runs the kernel, verify and encode steps of a full coloring.
func (r *replayer) color(op int64, root int, algorithm string, g *bipartite.Graph, ug *graph.Graph) ([]int32, error) {
	opts, err := core.ParseAlgorithm(algorithm)
	if err != nil {
		return nil, err
	}
	opts.Threads = 1
	opts.CollectPerIteration = true
	// The service runs every job under its default 30s deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	name := "core.color"
	if ug != nil {
		name = "d2.color"
	}
	s := r.child(op, root, name)
	var res *core.Result
	if ug != nil {
		res, err = d2.ColorCtx(ctx, ug, opts)
	} else {
		res, err = core.ColorCtx(ctx, g, opts)
	}
	if err != nil {
		r.tr.end(s)
		return nil, err
	}
	conflicts := 0
	for _, it := range res.Iters {
		conflicts += it.Conflicts
	}
	r.tr.end(s, "iterations", res.Iterations, "conflicts", conflicts, "work_cells", res.TotalWork,
		"coloring_ns", res.ColoringTime, "conflict_ns", res.ConflictTime, "colors", res.NumColors)
	if err := r.verify(op, root, g, ug, res.Colors); err != nil {
		return nil, err
	}
	return res.Colors, nil
}

func (r *replayer) verify(op int64, root int, g *bipartite.Graph, ug *graph.Graph, colors []int32) error {
	s := r.child(op, root, "verify")
	var err error
	if ug != nil {
		err = verify.D2GC(ug, colors)
	} else {
		err = verify.BGPC(g, colors)
	}
	r.tr.end(s)
	return err
}

func (r *replayer) encode(op int64, root int, v any) {
	s := r.child(op, root, "service.encode")
	_ = json.NewEncoder(io.Discard).Encode(v) // response types always encode
	r.tr.end(s)
}

func (r *replayer) walAppend(op int64, root int, fn func() error) error {
	size0 := dirSize(r.dir)
	s := r.child(op, root, "wal.append")
	err := fn()
	r.tr.end(s, "bytes", dirSize(r.dir)-size0)
	return err
}

// dirSize sums the sizes of the files in dir (the WAL's segments).
func dirSize(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			n += info.Size()
		}
	}
	return n
}

// fullColor replays an ingest, kernel or fallback /color.
func (r *replayer) fullColor(op int64, body []byte, cached *target, mode string) ([]int32, *bipartite.Graph, error) {
	root := r.root(op, "op")
	defer r.tr.end(root)
	req, err := r.decodeColor(op, root, body)
	if err != nil {
		return nil, nil, err
	}
	var g *bipartite.Graph
	var ug *graph.Graph
	var fp uint64
	if req.Matrix != "" {
		if g, fp, err = r.build(op, root, req.Matrix); err != nil {
			return nil, nil, err
		}
		if mode == "d2" {
			if ug, err = r.undirected(op, root, g); err != nil {
				return nil, nil, err
			}
		}
	} else {
		// A cached preset: graph, fingerprint and undirected view are
		// memoised in the daemon's cache entry.
		g, ug, fp = cached.g, cached.ug, cached.fpU
	}
	colors, err := r.color(op, root, req.Algorithm, g, ug)
	if err != nil {
		return nil, nil, err
	}
	if r.wal != nil && !r.wal.HasColoring(fp, modeName(mode)) {
		if err := r.walAppend(op, root, func() error { return r.wal.AppendFull(fp, modeName(mode), g, colors) }); err != nil {
			return nil, nil, err
		}
	}
	cs := verify.Stats(colors)
	r.encode(op, root, &service.ColorResponse{Colors: colors, NumColors: cs.NumColors, MaxColor: cs.MaxColor,
		Fingerprint: fmt.Sprintf("%016x", fp), CacheHit: req.Matrix == ""})
	return colors, g, nil
}

func modeName(mode string) string {
	if mode == "" {
		return "bgpc"
	}
	return mode
}

// deltaOp replays one successful delta: decode, apply, fingerprint the
// result (the cache entry's identity), recolor the dirty set, verify,
// log, encode.
func (r *replayer) deltaOp(op int64, ch *chain, k int) error {
	root := r.root(op, "op")
	defer r.tr.end(root)
	mode := ch.base.mode
	s := r.child(op, root, "service.decode")
	var req service.DeltaRequest
	err := json.Unmarshal(deltaBody(ch.insert[k], mode), &req)
	r.tr.end(s)
	if err != nil {
		return err
	}
	d := delta.Delta{Insert: req.Insert, Remove: req.Remove}
	base, baseColors := r.g[ch], r.colors[ch]
	s = r.child(op, root, "delta.apply")
	g2, _, _, err := delta.Apply(base, d)
	r.tr.end(s)
	if err != nil {
		return err
	}
	fp := r.fingerprint(op, root, g2)
	var ug2 *graph.Graph
	if mode == "d2" {
		if ug2, err = r.undirected(op, root, g2); err != nil {
			return err
		}
	}
	s = r.child(op, root, "delta.recolor")
	var colors []int32
	var st delta.Stats
	if ug2 != nil {
		colors, st, err = delta.RecolorD2(ug2, baseColors, d.DirtyD2())
	} else {
		colors, st, err = delta.RecolorBGPC(g2, baseColors, d.DirtyBGPC())
	}
	r.tr.end(s, "dirty", st.Dirty, "recolored", st.Recolored, "vertices", g2.NumVertices())
	if err != nil {
		return err
	}
	if err := r.verify(op, root, g2, ug2, colors); err != nil {
		return err
	}
	baseFP := base.Fingerprint()
	if !r.wal.HasColoring(fp, modeName(mode)) {
		if err := r.walAppend(op, root, func() error {
			return r.wal.AppendDelta(baseFP, fp, modeName(mode), d.Insert, d.Remove, colors)
		}); err != nil {
			return err
		}
	}
	cs := verify.Stats(colors)
	r.encode(op, root, &service.DeltaResponse{Colors: colors, NumColors: cs.NumColors, MaxColor: cs.MaxColor,
		BaseFingerprint: fmt.Sprintf("%016x", baseFP), Fingerprint: fmt.Sprintf("%016x", fp),
		Inserted: len(d.Insert), Dirty: st.Dirty, Recolored: st.Recolored, TotalVertices: g2.NumVertices()})
	r.g[ch], r.colors[ch] = g2, colors
	return nil
}

// replay runs every recorded op of every client through the layers.
func replay(clients []*client, outDir string) (*tracer, error) {
	r := &replayer{tr: &tracer{t0: time.Now()}, lim: limits.ParseLimits{}.WithDefaults(),
		g: map[*chain]*bipartite.Graph{}, colors: map[*chain][]int32{}}
	fleet := false
	for _, c := range clients {
		for _, o := range c.ops {
			fleet = fleet || o.chain != nil
		}
	}
	if fleet {
		r.dir = filepath.Join(outDir, fmt.Sprintf("replay-wal-%d", os.Getpid()))
		if err := os.RemoveAll(r.dir); err != nil {
			return nil, err
		}
		l, _, err := wal.Open(wal.Options{Dir: r.dir, Sync: wal.SyncInterval, Interval: 100 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		r.wal = l
		defer func() {
			// A scratch log: nothing in it outlives the run.
			_ = l.Close()
			_ = os.RemoveAll(r.dir)
		}()
	}
	for _, c := range clients {
		for _, o := range c.ops {
			if err := r.one(o); err != nil {
				return nil, fmt.Errorf("replaying op %d: %w", o.id, err)
			}
		}
	}
	return r.tr, nil
}

func (r *replayer) one(o opRecord) error {
	switch {
	case o.color != nil:
		_, _, err := r.fullColor(o.id, o.color.body, o.color.tgt, modeOf(o.color.tgt))
		return err
	case o.k < 0:
		ch := o.chain
		colors, _, err := r.fullColor(o.id, ch.base.body, ch.base.tgt, ch.base.mode)
		r.g[ch], r.colors[ch] = ch.base.tgt.g, colors
		return err
	case o.fallback:
		ch := o.chain
		g2, _, _, err := delta.Apply(r.g[ch], delta.Delta{Insert: ch.insert[o.k]})
		if err != nil {
			return err
		}
		body := colorBody(map[string]any{"matrix": mtxText(g2)}, "N1-N2", ch.base.mode)
		colors, g, err := r.fullColor(o.id, body, nil, ch.base.mode)
		r.g[ch], r.colors[ch] = g, colors
		if err == nil && o.k == chainDeltas-1 {
			err = r.sync(o.id)
		}
		return err
	default:
		err := r.deltaOp(o.id, o.chain, o.k)
		if err == nil && o.k == chainDeltas-1 {
			err = r.sync(o.id)
		}
		return err
	}
}

// sync flushes the replay log once per chain: under bgpcd's interval
// policy one fsync covers a batch of appends.
func (r *replayer) sync(op int64) error {
	s := r.tr.begin(op, 0, "wal.sync")
	err := r.wal.Sync()
	r.tr.end(s)
	return err
}

func modeOf(t *target) string {
	if t.ug != nil {
		return "d2"
	}
	return ""
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	calls  int
	selfNS int64
	allocs int64 // self
	counts map[string]float64
}

// layers folds spans into per-name rows. A span's self time is its
// duration minus the part of it its children cover; its self allocs
// likewise exclude its children's.
func layers(spans []span) map[string]*layerRow {
	kids := map[int64][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], &spans[i])
		}
	}
	rows := map[string]*layerRow{}
	for i := range spans {
		s := &spans[i]
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{counts: map[string]float64{}}
			rows[s.Name] = row
		}
		covered, allocs := coveredNS(s, kids[s.ID])
		row.calls++
		row.selfNS += s.EndNS - s.StartNS - covered - s.TracerNS
		row.allocs += s.Allocs - allocs
		for k, v := range s.Counts {
			row.counts[k] += v
		}
	}
	return rows
}

// coveredNS returns the length of the union of the children's
// intervals clipped to s, and the children's summed allocs.
func coveredNS(s *span, kids []*span) (int64, int64) {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var covered, allocs, cur int64 = 0, 0, s.StartNS
	for _, k := range kids {
		allocs += k.Allocs
		lo, hi := max(k.StartNS, cur), min(k.EndNS, s.EndNS)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return covered, allocs
}

// writeTrace writes the spans (layer replay and HTTP) as JSON lines and
// the per-layer table, and returns the table text.
func writeTrace(outDir, stem string, tr *tracer, clients []*client) (string, error) {
	f, err := os.Create(filepath.Join(outDir, stem+".spans.jsonl"))
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	// Write errors stick in the bufio.Writer and surface at Flush.
	for _, c := range clients {
		for _, s := range c.spans {
			_ = enc.Encode(s)
		}
	}
	for _, s := range tr.spans {
		_ = enc.Encode(s)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}

	rows := layers(tr.spans)
	names := make([]string, 0, len(rows))
	var all int64
	for n, r := range rows {
		names = append(names, n)
		all += r.selfNS
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]].selfNS > rows[names[j]].selfNS })
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-22s %7s %12s %12s %7s %12s\n", "layer", "calls", "self_ms", "self_us/call", "share", "allocs/call")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(&b, "%-22s %7d %12.3f %12.2f %6.1f%% %12.1f\n", n, r.calls, float64(r.selfNS)/1e6,
			float64(r.selfNS)/1e3/float64(r.calls), 100*float64(r.selfNS)/float64(max(all, 1)), float64(r.allocs)/float64(r.calls))
	}
	if err := os.WriteFile(filepath.Join(outDir, stem+".layers.txt"), b.Bytes(), 0o644); err != nil {
		return "", err
	}
	return b.String(), nil
}

// traced is the traced run: a traced HTTP pass of a fixed number of
// ops per client, recording one span per exchange, then — with the
// servers stopped — the layer replay of the same ops. Its end-to-end
// numbers (traced.*) set beside the untraced run's give the tracing
// overhead.
func traced(e *env, w workload, name string, seed uint64, outDir string, r *report) (tally, error) {
	var before *fleetScrape
	var err error
	if e.fleet != nil {
		if before, err = e.st.scrapeFleet(e.hc); err != nil {
			return tally{}, err
		}
	}
	runtime.GC()
	start := time.Now()
	cs := e.clients(true, start)
	e.drive(cs, time.Time{}, w.tracedOps)
	elapsed := time.Since(start)
	t := merge(cs)
	if len(t.lats) == 0 {
		return t, noOps(t)
	}
	r.add("traced.throughput_rps", float64(len(t.lats))/elapsed.Seconds(), "1/s")
	r.add("traced.latency_p50_ms", quantile(t.lats, 0.50), "ms")
	r.add("traced.latency_p99_ms", quantile(t.lats, 0.99), "ms")

	var queue, wall, outside []float64
	backends := map[string]int{}
	proxied, rerouted := 0, 0
	for _, c := range cs {
		for _, sp := range c.spans {
			if sp.Backend != "" {
				backends[sp.Backend]++
				proxied++
			}
			if sp.Rerouted {
				rerouted++
			}
			if sp.Status != 200 {
				continue
			}
			queue = append(queue, sp.QueueMS)
			wall = append(wall, sp.WallMS)
			outside = append(outside, float64(sp.EndNS-sp.StartNS)/1e6-sp.QueueMS-sp.WallMS)
		}
	}
	for _, v := range [][]float64{queue, wall, outside} {
		sort.Float64s(v)
	}
	r.add("service.queue_ms_p50", quantile(queue, 0.50), "ms")
	r.add("service.queue_ms_p99", quantile(queue, 0.99), "ms")
	r.add("service.wall_ms_p50", quantile(wall, 0.50), "ms")
	r.add("service.outside_ms_p50", quantile(outside, 0.50), "ms")
	r.add("service.cache_hit_ratio", float64(t.hits)/math.Max(float64(t.colorFresh), 1), "ratio")

	if e.fleet != nil {
		after, err := e.st.scrapeFleet(e.hc)
		if err != nil {
			return t, err
		}
		fc, err := fleetCounters(before, after, t, r)
		if err != nil {
			return t, err
		}
		r.add("service.delta_applied", fc.applied, "count")
		r.add("service.delta_misses", fc.misses, "count")
		r.add("router.spillovers", fc.spillovers, "count")
		hop, err := measureHop(e)
		if err != nil {
			return t, err
		}
		most := 0
		for _, n := range backends {
			most = max(most, n)
		}
		r.add("router.hop_ms_p50", hop, "ms")
		r.add("router.delta_fallback_ratio", float64(t.delta404)/math.Max(float64(t.deltaSent), 1), "ratio")
		r.add("router.backend_share_max", float64(most)/math.Max(float64(proxied), 1), "ratio")
		r.add("router.reroutes", float64(rerouted), "count")
	} else {
		// One daemon, no router, no deltas: these layers are bypassed.
		for _, m := range []struct{ name, unit string }{
			{"service.delta_applied", "count"}, {"service.delta_misses", "count"}, {"router.spillovers", "count"},
			{"router.hop_ms_p50", "ms"}, {"router.delta_fallback_ratio", "ratio"}, {"router.backend_share_max", "ratio"},
			{"router.reroutes", "count"}} {
			r.add(m.name, 0, m.unit)
		}
	}

	if err := e.close(); err != nil {
		return t, fmt.Errorf("teardown before replay: %w", err)
	}
	tr, err := replay(cs, outDir)
	if err != nil {
		return t, err
	}
	stem := fmt.Sprintf("%s-seed%d", name, seed)
	table, err := writeTrace(outDir, stem, tr, cs)
	if err != nil {
		return t, err
	}
	r.note("per-layer self time of the replay (%s.layers.txt, spans in %s.spans.jsonl):\n%s", stem, stem, strings.TrimRight(table, "\n"))
	layerMetrics(layers(tr.spans), r)
	return t, nil
}

// measureHop sends each fleet base's cached /color alternately through
// the router and straight to the backend the router picked; the hop is
// the difference of the two medians.
func measureHop(e *env) (float64, error) {
	c := newClient(0, e.hc, e.st.entry, time.Now(), false)
	var via, direct []float64
	send := func(url string, b *fleetBase) (http.Header, float64, error) {
		status, rep, hdr, dur, err := c.post(0, "http.color", url, b.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d", url, status)
		}
		if err == nil {
			err = check(b.tgt, rep)
		}
		return hdr, float64(dur.Nanoseconds()) / 1e6, err
	}
	for _, b := range e.fleet.bases {
		hdr, _, err := send(e.st.entry+"/color", b)
		if err != nil {
			return 0, err
		}
		owner, ok := e.st.backends[hdr.Get("X-Bgpc-Backend")]
		if !ok {
			return 0, fmt.Errorf("router named unknown backend %q", hdr.Get("X-Bgpc-Backend"))
		}
		for i := 0; i < 10; i++ {
			_, v, err := send(e.st.entry+"/color", b)
			if err != nil {
				return 0, err
			}
			_, d, err := send(owner+"/color", b)
			if err != nil {
				return 0, err
			}
			via, direct = append(via, v), append(direct, d)
		}
	}
	sort.Float64s(via)
	sort.Float64s(direct)
	return quantile(via, 0.5) - quantile(direct, 0.5), nil
}

// layerMetrics turns the replay's per-layer rows into the per-layer
// metrics. A layer the workload never calls reads 0.
func layerMetrics(rows map[string]*layerRow, r *report) {
	get := func(name string) *layerRow {
		if row := rows[name]; row != nil {
			return row
		}
		return &layerRow{counts: map[string]float64{}}
	}
	self := func(name string, unit float64) float64 {
		row := get(name)
		return float64(row.selfNS) / unit / float64(max(row.calls, 1))
	}
	count := func(name, key string) float64 {
		row := get(name)
		return row.counts[key] / float64(max(row.calls, 1))
	}
	allocs := func(name string) float64 {
		row := get(name)
		return float64(row.allocs) / float64(max(row.calls, 1))
	}
	r.add("service.decode_us", self("service.decode", 1e3), "us")
	r.add("service.cache_key_us", self("service.cache_key", 1e3), "us")
	r.add("mtx.peek_us", self("mtx.peek", 1e3), "us")
	r.add("mtx.read_ms", self("mtx.read", 1e6), "ms")
	r.add("mtx.read_allocs", allocs("mtx.read"), "count")
	read := get("mtx.read")
	r.add("mtx.read_mb_per_s", read.counts["bytes"]*1e3/math.Max(float64(read.selfNS), 1), "MB/s")
	r.add("bipartite.from_edges_ms", self("bipartite.from_edges", 1e6), "ms")
	r.add("bipartite.from_edges_allocs", allocs("bipartite.from_edges"), "count")
	r.add("bipartite.fingerprint_us", self("bipartite.fingerprint", 1e3), "us")
	r.add("core.color_ms", self("core.color", 1e6), "ms")
	r.add("core.coloring_ms", count("core.color", "coloring_ns")/1e6, "ms")
	r.add("core.conflict_ms", count("core.color", "conflict_ns")/1e6, "ms")
	r.add("core.iterations", count("core.color", "iterations"), "count")
	r.add("core.conflicts", count("core.color", "conflicts"), "count")
	r.add("core.work_cells", count("core.color", "work_cells"), "count")
	r.add("core.allocs", allocs("core.color"), "count")
	r.add("d2.color_ms", self("d2.color", 1e6), "ms")
	r.add("d2.iterations", count("d2.color", "iterations"), "count")
	r.add("d2.work_cells", count("d2.color", "work_cells"), "count")
	r.add("verify.ms", self("verify", 1e6), "ms")
	r.add("service.encode_us", self("service.encode", 1e3), "us")
	r.add("delta.apply_us", self("delta.apply", 1e3), "us")
	r.add("delta.recolor_us", self("delta.recolor", 1e3), "us")
	rec := get("delta.recolor")
	r.add("delta.dirty_ratio", rec.counts["dirty"]/math.Max(rec.counts["vertices"], 1), "ratio")
	r.add("delta.recolored_per_op", count("delta.recolor", "recolored"), "count")
	r.add("wal.append_us", self("wal.append", 1e3), "us")
	r.add("wal.bytes_per_append", count("wal.append", "bytes"), "B")
	r.add("wal.sync_ms", self("wal.sync", 1e6), "ms")
}
