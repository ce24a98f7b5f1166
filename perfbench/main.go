// Command perfbench is the repository's benchmark. It runs the coloring
// daemon (internal/service) — alone, or as a fleet of three WAL-backed
// daemons behind internal/router — inside its own process on loopback
// HTTP, drives it with two closed-loop clients replaying op sequences
// generated from -seed, checks every coloring it gets back, and prints
// its metrics. Build and run it through run.py:
//
//	python3 perfbench/run.py --workload kernel --seed 1 --seconds 10 --trace 0
//
// -trace 0 prints the end-to-end metrics of a timed run; -trace 1 runs
// the traced run instead and prints the per-layer metrics. The last
// line of standard output is the result as one JSON object. The exit
// status is non-zero when the run could not finish or any coloring
// failed its check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times a run sets up the system (servers,
// cache warm-up) before measuring; setup_s reports the median.
const setupReps = 3

type workload struct {
	// inputs generates the run's inputs from the seed, once per run:
	// that is the load generator's work, so setup_s leaves it out.
	inputs func(seed uint64) (*env, error)
	// setup starts the stack serving e's inputs and warms its caches.
	setup func(e *env, walRoot string) error
	// tracedOps is the number of logical ops each client runs in the
	// traced pass: a fixed count, so the traced counts (fallbacks,
	// cache hits) repeat exactly for a seed.
	tracedOps int
}

var workloads = map[string]workload{
	"ingest": {tracedOps: 120, setup: setupIngest, inputs: func(seed uint64) (*env, error) {
		in, err := genIngest(seed)
		return &env{ingest: in}, err
	}},
	"kernel": {tracedOps: 600, setup: setupKernel, inputs: func(seed uint64) (*env, error) {
		in, err := genKernel(seed)
		return &env{kernel: in}, err
	}},
	"delta-fleet": {tracedOps: 30 * (chainDeltas + 1), setup: setupFleet, inputs: func(seed uint64) (*env, error) {
		in, err := genFleet(seed)
		return &env{fleet: in}, err
	}},
}

// env is one run's inputs and the stack serving them.
type env struct {
	st     *stack
	hc     *http.Client
	ingest *ingestInputs
	kernel *kernelInputs
	fleet  *fleetInputs
	closed bool
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}}
}

func (e *env) close() error {
	if e.st == nil || e.closed {
		return nil
	}
	e.closed = true
	e.hc.CloseIdleConnections()
	return e.st.close()
}

func (e *env) clients(trace bool, t0 time.Time) []*client {
	cs := make([]*client, numClients)
	done := new(atomic.Int64)
	for i := range cs {
		cs[i] = newClient(i, e.hc, e.st.entry, t0, trace)
		cs[i].done = done
		if e.fleet != nil {
			cs[i].cg = newChainGen(e.fleet, i)
		}
	}
	return cs
}

// step runs client c's i-th logical op.
func (e *env) step(c *client, i int) {
	switch {
	case e.ingest != nil:
		seq := e.ingest.seqs[c.id]
		c.colorOnce(&e.ingest.ops[seq[i%len(seq)]])
	case e.kernel != nil:
		seq := e.kernel.seqs[c.id]
		c.colorOnce(&e.kernel.ops[seq[i%len(seq)]])
	default:
		c.fleetOnce()
	}
}

// warm sends ops on one client and fails on the first bad answer.
func (e *env) warm(ops []*colorOp) error {
	c := newClient(0, e.hc, e.st.entry, time.Now(), false)
	for _, op := range ops {
		c.colorOnce(op)
		if c.firstErr != nil {
			return fmt.Errorf("warm-up: %w", c.firstErr)
		}
	}
	return nil
}

// start puts st in front of e's inputs.
func (e *env) start(st *stack) {
	e.st, e.hc, e.closed = st, newHTTPClient(), false
}

func setupIngest(e *env, _ string) error {
	st, err := startSingle()
	if err != nil {
		return err
	}
	e.start(st)
	// Fill the LRU with the tail of each client's cycle: the timed
	// ops start at the head, so every one of them still misses.
	var ops []*colorOp
	for _, seq := range e.ingest.seqs {
		for _, i := range seq[len(seq)-33:] {
			ops = append(ops, &e.ingest.ops[i])
		}
	}
	return e.warmOrClose(ops)
}

func setupKernel(e *env, _ string) error {
	st, err := startSingle()
	if err != nil {
		return err
	}
	e.start(st)
	var ops []*colorOp
	for rep := 0; rep < 2; rep++ {
		for i := range e.kernel.ops {
			ops = append(ops, &e.kernel.ops[i])
		}
	}
	return e.warmOrClose(ops)
}

func setupFleet(e *env, walRoot string) error {
	st, err := startFleet(walRoot)
	if err != nil {
		return err
	}
	e.start(st)
	var ops []*colorOp
	for _, b := range e.fleet.bases {
		ops = append(ops, &colorOp{label: b.tgt.name, body: b.body, tgt: b.tgt})
	}
	return e.warmOrClose(ops)
}

func (e *env) warmOrClose(ops []*colorOp) error {
	if err := e.warm(ops); err != nil {
		e.close()
		return err
	}
	return nil
}

// drive runs the clients concurrently, each until the deadline (ops ==
// 0) or for exactly ops logical ops.
func (e *env) drive(cs []*client, deadline time.Time, ops int) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; ; i++ {
				if ops > 0 && i >= ops || ops == 0 && !time.Now().Before(deadline) {
					return
				}
				e.step(c, i)
			}
		}(c)
	}
	wg.Wait()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order.
type report struct {
	names []string
	m     map[string]metric
	notes []string // extra lines printed before the metrics
}

func (r *report) add(name string, v float64, unit string) {
	if r.m == nil {
		r.m = map[string]metric{}
	}
	r.names = append(r.names, name)
	r.m[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// tally merges the clients' counts.
type tally struct {
	lats                                  []float64
	attempted, failed, colorsN            int
	colorsSum                             float64
	deltaSent, delta404, hits, colorFresh int
	firstErr                              error
}

func merge(cs []*client) tally {
	var t tally
	for _, c := range cs {
		t.lats = append(t.lats, c.lats...)
		t.attempted += c.attempted
		t.failed += c.failed
		t.colorsN += c.colorsN
		t.colorsSum += c.colorsSum
		t.deltaSent += c.deltaSent
		t.delta404 += c.delta404
		t.hits += c.cacheHits
		t.colorFresh += c.colorFresh
		if t.firstErr == nil {
			t.firstErr = c.firstErr
		}
	}
	sort.Float64s(t.lats)
	return t
}

// sample is the process's counters at one instant of a timed run.
type sample struct {
	at            time.Time
	ops           int64
	cpu           time.Duration
	allocs, bytes uint64
}

func takeSample(done *atomic.Int64, ms *runtime.MemStats) sample {
	runtime.ReadMemStats(ms)
	return sample{at: time.Now(), ops: done.Load(), cpu: cpuTime(), allocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func median(v []float64) float64 {
	sort.Float64s(v)
	return quantile(v, 0.5)
}

// timed is the end-to-end run: both clients for the run's seconds,
// tracing off. Every metric is taken over the whole run. Runs are kept
// short because the shared machine's speed drifts by tens of percent
// over minutes: a set of short runs spans less of that drift than a set
// of long ones, while ten seconds still hold over a thousand ops of the
// slowest workload, ten of them beyond its p99.
func timed(e *env, seconds int, r *report) (tally, error) {
	var before *fleetScrape
	var err error
	if e.fleet != nil {
		if before, err = e.st.scrapeFleet(e.hc); err != nil {
			return tally{}, err
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	start := time.Now()
	cs := e.clients(false, start)
	first := takeSample(cs[0].done, &ms)
	e.drive(cs, start.Add(time.Duration(seconds)*time.Second), 0)
	last := takeSample(cs[0].done, &ms)
	t := merge(cs)
	if len(t.lats) == 0 || last.ops == first.ops {
		return t, noOps(t)
	}
	ops := float64(last.ops - first.ops)
	r.add("throughput_rps", ops/last.at.Sub(first.at).Seconds(), "1/s")
	r.add("latency_p50_ms", quantile(t.lats, 0.5), "ms")
	r.add("latency_p99_ms", quantile(t.lats, 0.99), "ms")
	r.add("cpu_ms_per_op", float64((last.cpu-first.cpu).Nanoseconds())/1e6/ops, "ms")
	r.add("allocs_per_op", float64(last.allocs-first.allocs)/ops, "count")
	r.add("alloc_bytes_per_op", float64(last.bytes-first.bytes)/ops, "B")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	r.add("colors_mean", t.colorsSum/float64(max(t.colorsN, 1)), "count")
	r.note("ops: %d ok of %d attempted in %.3f s; error_ratio %.6f", len(t.lats), t.attempted, last.at.Sub(first.at).Seconds(),
		float64(t.failed)/float64(t.attempted))
	if e.kernel != nil {
		noteShares(cs, e.kernel.ops, r)
	}
	if e.fleet != nil {
		after, err := e.st.scrapeFleet(e.hc)
		if err != nil {
			return t, err
		}
		if _, err := fleetCounters(before, after, t, r); err != nil {
			return t, err
		}
	}
	return t, nil
}

// noOps is the error for a run in which no op succeeded.
func noOps(t tally) error {
	return fmt.Errorf("none of %d ops succeeded; first failure: %v", t.attempted, t.firstErr)
}

// noteShares prints each kernel entry's share of the clients' summed
// latency, the check that no entry dominates the mix, and its median
// latency.
func noteShares(cs []*client, ops []colorOp, r *report) {
	lats := map[string][]float64{}
	var total float64
	for _, c := range cs {
		for k, v := range c.entryLats {
			lats[k] = append(lats[k], v...)
			for _, ms := range v {
				total += ms
			}
		}
	}
	for _, op := range ops {
		var sum float64
		for _, ms := range lats[op.label] {
			sum += ms
		}
		r.note("kernel entry %-28s ops %6d  share of service time %5.1f%%  p50 %.3f ms", op.label, len(lats[op.label]),
			100*sum/math.Max(total, 1e-9), median(lats[op.label]))
	}
}

// fleetCounts is what the fleet's /metrics say happened between two
// scrapes.
type fleetCounts struct{ applied, misses, spillovers float64 }

// fleetCounters reports the backends' counter deltas over a run and
// cross-checks them against what the clients saw. The daemons share
// this process, and the service counters are process-wide, so every
// backend's scrape shows the fleet total; the check asserts that too.
func fleetCounters(before, after *fleetScrape, t tally, r *report) (fleetCounts, error) {
	d := func(m0, m1 map[string]float64, k string) float64 { return m1[k] - m0[k] }
	var fc fleetCounts
	for i, name := range fleetNames {
		a := d(before.backends[name], after.backends[name], "bgpc_svc_delta_applied_total")
		m := d(before.backends[name], after.backends[name], "bgpc_svc_delta_misses_total")
		r.note("backend %s: svc_delta_applied +%.0f, svc_delta_misses +%.0f", name, a, m)
		if i > 0 && (a != fc.applied || m != fc.misses) {
			return fc, fmt.Errorf("backend scrapes disagree on process-wide counters (%s: +%.0f/+%.0f vs +%.0f/+%.0f)", name, a, m, fc.applied, fc.misses)
		}
		fc.applied, fc.misses = a, m
	}
	fc.spillovers = d(before.router, after.router, "bgpc_rtr_spillovers_total")
	r.note("router: rtr_proxied +%.0f, rtr_spillovers +%.0f, rtr_failovers +%.0f",
		d(before.router, after.router, "bgpc_rtr_proxied_total"), fc.spillovers, d(before.router, after.router, "bgpc_rtr_failovers_total"))
	r.note("clients: %d deltas sent, %d answered 404 (fallback ratio %.4f)", t.deltaSent, t.delta404,
		float64(t.delta404)/math.Max(float64(t.deltaSent), 1))
	if int(fc.misses) != t.delta404 {
		return fc, fmt.Errorf("svc_delta_misses advanced by %.0f but clients saw %d delta 404s", fc.misses, t.delta404)
	}
	return fc, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "ingest, kernel or delta-fleet")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "timed-run length")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for span files and scratch WALs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload ingest|kernel|delta-fleet, -seconds ≥ 1, -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	walRoot := filepath.Join(*out, fmt.Sprintf("wal-%d", os.Getpid()))

	var rep report
	e, err := w.inputs(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: inputs:", err)
		return 1
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if err := e.close(); err != nil {
			fmt.Fprintln(stderr, "perfbench: teardown:", err)
			return 1
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(e, walRoot); err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	sort.Float64s(setups)

	var t tally
	if *traceFlag == 0 {
		t, err = timed(e, *seconds, &rep)
		rep.add("setup_s", setups[len(setups)/2], "s")
	} else {
		t, err = traced(e, w, *name, *seed, *out, &rep)
	}
	if cerr := e.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	fmt.Fprintf(stdout, "setup runs (s): %v\n", setups)
	for _, n := range rep.names {
		fmt.Fprintf(stdout, "%-28s %14.6f %s\n", n, rep.m[n].Value, rep.m[n].Unit)
	}
	if t.firstErr != nil {
		fmt.Fprintln(stdout, "first failed op:", t.firstErr)
	}
	b, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: rep.m})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if t.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed; first: %v\n", t.failed, t.attempted, t.firstErr)
		return 1
	}
	return 0
}
