// Package distk implements greedy distance-k graph coloring for
// arbitrary k ≥ 1 — the generalization the paper's conclusion names as
// future work ("the optimistic techniques for BGPC and D2GC can be
// extended to the distance-k graph coloring problem").
//
// A distance-k coloring assigns different colors to every pair of
// vertices whose shortest-path distance is at most k. The package
// provides the sequential greedy algorithm and the speculative
// parallel loop (paper Algorithms 1–3 with nbor(v) = the radius-k
// ball around v, enumerated by bounded BFS). The specialized k = 1 and
// k = 2 implementations in internal/d1 and internal/d2 (internal/core
// on the closed-neighbourhood view) are faster for those cases; this
// package trades constant factors for generality.
package distk

import (
	"fmt"
	"time"

	"bgpc/internal/core"
	"bgpc/internal/graph"
	"bgpc/internal/par"
)

// Options configures a distance-k run. The net-based phases
// (NetColorIters/NetCRIters) generalize the paper's Algorithms 9–10 to
// even k via half-radius balls: every distance-≤k pair has a middle
// vertex within distance k/2 of both endpoints, so scanning each
// vertex's radius-k/2 ball detects all conflicts, and the members of
// such a ball are pairwise within distance k, giving the reverse
// first-fit start |ball(v, k/2)|. Odd k > 1 has no exact middle
// vertex, so net-based phases are rejected there.
type Options = core.Options

// ball is a per-thread bounded-BFS scratch: a stamped visited array
// and a frontier queue, allocated once and reused for every vertex.
type ball struct {
	stamp   []int32
	current int32
	queue   []int32 // vertices in visit order
	depth   []int32 // parallel to queue
}

func newBall(n int) *ball {
	return &ball{stamp: make([]int32, n)}
}

// visit enumerates all vertices within distance k of v, excluding v
// itself, invoking fn for each. It returns the number of adjacency
// cells scanned (for the work model).
func (b *ball) visit(g *graph.Graph, v int32, k int, fn func(u int32)) int64 {
	b.current++
	if b.current <= 0 { // stamp wrapped
		for i := range b.stamp {
			b.stamp[i] = 0
		}
		b.current = 1
	}
	b.queue = b.queue[:0]
	b.depth = b.depth[:0]
	b.stamp[v] = b.current
	b.queue = append(b.queue, v)
	b.depth = append(b.depth, 0)
	var work int64
	for head := 0; head < len(b.queue); head++ {
		u, d := b.queue[head], b.depth[head]
		if int(d) >= k {
			continue
		}
		nb := g.Nbors(u)
		work += int64(len(nb)) + 1
		for _, w := range nb {
			if b.stamp[w] == b.current {
				continue
			}
			b.stamp[w] = b.current
			b.queue = append(b.queue, w)
			b.depth = append(b.depth, d+1)
			fn(w)
		}
	}
	return work
}

// Sequential runs single-threaded greedy distance-k coloring in the
// given order (nil = natural) with first-fit.
func Sequential(g *graph.Graph, k int, vertexOrder []int32) (*core.Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("distk: k must be ≥ 1, got %d", k)
	}
	n := g.NumVertices()
	start := time.Now()
	c := make([]int32, n)
	for i := range c {
		c[i] = core.Uncolored
	}
	f := core.NewForbidden(g.MaxDeg() + 2)
	b := newBall(n)
	var work int64
	colorOne := func(v int32) {
		f.Reset()
		work += b.visit(g, v, k, func(u int32) {
			if c[u] != core.Uncolored {
				f.Add(c[u])
			}
		})
		c[v] = core.FirstFit(f)
	}
	if vertexOrder == nil {
		for v := int32(0); int(v) < n; v++ {
			colorOne(v)
		}
	} else {
		for _, v := range vertexOrder {
			colorOne(v)
		}
	}
	res := &core.Result{
		Colors:       c,
		Iterations:   1,
		Time:         time.Since(start),
		TotalWork:    work,
		CriticalWork: work,
	}
	res.ColoringTime = res.Time
	countColors(res)
	return res, nil
}

// Color runs the speculative parallel distance-k loop: optimistic
// ball-scan coloring, ball-scan conflict detection with the smaller-id
// tie-break, repeated to a fixed point.
func Color(g *graph.Graph, k int, opts Options) (*core.Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("distk: k must be ≥ 1, got %d", k)
	}
	if err := validate(&opts, g.NumVertices(), k); err != nil {
		return nil, err
	}
	start := time.Now()
	n := g.NumVertices()
	threads := threadsOf(&opts)
	c := core.NewColors(n)
	wc := core.NewWorkCounters(threads)
	forb := make([]*core.Forbidden, threads)
	balls := make([]*ball, threads)
	pol := make([]core.Policy, threads)
	for i := 0; i < threads; i++ {
		forb[i] = core.NewForbidden(g.MaxDeg() + 2)
		balls[i] = newBall(n)
	}

	W := make([]int32, 0, n)
	appendVertex := func(u int32) {
		if g.Deg(u) == 0 {
			c.Set(u, 0)
		} else {
			W = append(W, u)
		}
	}
	if opts.Order == nil {
		for u := int32(0); int(u) < n; u++ {
			appendVertex(u)
		}
	} else {
		for _, u := range opts.Order {
			appendVertex(u)
		}
	}

	local := par.NewLocalQueues(threads, len(W))
	var wnext []int32
	sched := par.Dynamic
	if opts.Guided {
		sched = par.Guided
	}
	po := par.Options{Threads: threads, Chunk: chunkOf(&opts), Schedule: sched}
	res := &core.Result{}
	maxIters := maxItersOf(&opts)
	for iter := 1; len(W) > 0; iter++ {
		if iter > maxIters {
			return nil, fmt.Errorf("distk: no fixed point after %d iterations (%d vertices still queued)", maxIters, len(W))
		}
		res.Iterations = iter
		netColor := iter <= opts.NetColorIters
		netCR := iter <= opts.NetCRIters
		it := core.IterStats{QueueLen: len(W), NetColoring: netColor, NetCR: netCR}

		t0 := time.Now()
		for i := range pol {
			pol[i] = core.NewPolicy(opts.Balance)
		}
		if netColor {
			colorNetPhaseK(g, k/2, c, forb, balls, pol, &opts, po, wc)
		} else {
			par.For(len(W), po, func(tid, lo, hi int) {
				f := forb[tid]
				b := balls[tid]
				p := &pol[tid]
				work := int64(core.DispatchCostUnits) * int64(threads)
				for i := lo; i < hi; i++ {
					w := W[i]
					f.Reset()
					work += b.visit(g, w, k, func(u int32) {
						if cu := c.Get(u); cu != core.Uncolored {
							f.Add(cu)
						}
					})
					c.Set(w, p.Pick(f, w))
				}
				wc.AddChunk(work)
			})
		}
		it.ColoringTime = time.Since(t0)
		it.ColoringWork, it.ColoringMaxWork = wc.TotalAndMax()

		t1 := time.Now()
		if netCR {
			conflictNetPhaseK(g, k/2, c, forb, balls, &opts, po, wc)
			W = par.GatherInt32(n, par.Options{Threads: threads, Schedule: par.Static},
				func(u int32) bool { return c.Get(u) == core.Uncolored })
		} else {
			local.Reset()
			par.For(len(W), po, func(tid, lo, hi int) {
				b := balls[tid]
				work := int64(core.DispatchCostUnits) * int64(threads)
				for i := lo; i < hi; i++ {
					w := W[i]
					cw := c.Get(w)
					conflict := false
					work += b.visit(g, w, k, func(u int32) {
						if !conflict && u < w && c.Get(u) == cw {
							conflict = true
						}
					})
					if conflict {
						local.Push(tid, w)
					}
				}
				wc.AddChunk(work)
			})
			wnext = local.MergeInto(wnext)
			W = append(W[:0], wnext...)
		}
		it.ConflictTime = time.Since(t1)
		it.ConflictWork, it.ConflictMaxWork = wc.TotalAndMax()
		it.Conflicts = len(W)

		res.ColoringTime += it.ColoringTime
		res.ConflictTime += it.ConflictTime
		res.TotalWork += it.ColoringWork + it.ConflictWork
		res.CriticalWork += it.ColoringMaxWork + it.ConflictMaxWork
		if opts.CollectPerIteration {
			res.Iters = append(res.Iters, it)
		}
	}

	res.Colors = c.Raw()
	res.Time = time.Since(start)
	countColors(res)
	return res, nil
}

// Verify returns nil iff colors is a valid distance-k coloring of g.
func Verify(g *graph.Graph, k int, colors []int32) error {
	if k < 1 {
		return fmt.Errorf("distk: k must be ≥ 1, got %d", k)
	}
	if len(colors) != g.NumVertices() {
		return fmt.Errorf("distk: %d colors for %d vertices", len(colors), g.NumVertices())
	}
	for v, cv := range colors {
		if cv < 0 {
			return fmt.Errorf("distk: vertex %d uncolored", v)
		}
		_ = cv
	}
	b := newBall(g.NumVertices())
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		var bad int32 = -1
		b.visit(g, v, k, func(u int32) {
			if bad == -1 && colors[u] == colors[v] {
				bad = u
			}
		})
		if bad != -1 {
			return fmt.Errorf("distk: vertices %d and %d within distance %d share color %d", v, bad, k, colors[v])
		}
	}
	return nil
}

func threadsOf(o *Options) int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

func chunkOf(o *Options) int {
	if o.Chunk < 1 {
		return 1
	}
	return o.Chunk
}

func maxItersOf(o *Options) int {
	if o.MaxIters <= 0 {
		return 1000
	}
	return o.MaxIters
}

func validate(o *Options, n, k int) error {
	if (o.NetColorIters != 0 || o.NetCRIters != 0) && k%2 != 0 {
		return fmt.Errorf("distk: net-based phases need an exact middle vertex, which exists only for even k (got k=%d)", k)
	}
	if o.NetColorIters > o.NetCRIters {
		return fmt.Errorf("distk: NetColorIters (%d) > NetCRIters (%d)", o.NetColorIters, o.NetCRIters)
	}
	if o.Order != nil {
		if len(o.Order) != n {
			return fmt.Errorf("distk: Order has length %d, graph has %d vertices", len(o.Order), n)
		}
		seen := make([]bool, n)
		for _, u := range o.Order {
			if u < 0 || int(u) >= n || seen[u] {
				return fmt.Errorf("distk: Order is not a permutation of [0,%d)", n)
			}
			seen[u] = true
		}
	}
	switch o.Balance {
	case core.BalanceNone, core.BalanceB1, core.BalanceB2:
	default:
		return fmt.Errorf("distk: unknown Balance %d", o.Balance)
	}
	return nil
}

// colorNetPhaseK is the even-k generalization of D2GC's Algorithm 9:
// each vertex v acts as the net covering {v} ∪ ball(v, r) with
// r = k/2; uncolored or locally conflicting members are recolored with
// reverse first-fit from |ball(v, r)| (ball members are pairwise within
// distance 2r = k, so they all need distinct colors and the start is
// safe), or with the B1/B2 policy when balancing.
func colorNetPhaseK(g *graph.Graph, r int, c *core.Colors, forb []*core.Forbidden, balls []*ball, pol []core.Policy, o *Options, po par.Options, wc *core.WorkCounters) {
	threads := threadsOf(o)
	wls := make([][]int32, threads)
	par.For(g.NumVertices(), po, func(tid, lo, hi int) {
		f := forb[tid]
		b := balls[tid]
		p := &pol[tid]
		wl := wls[tid]
		work := int64(core.DispatchCostUnits) * int64(threads)
		for vi := lo; vi < hi; vi++ {
			v := int32(vi)
			f.Reset()
			wl = wl[:0]
			if cv := c.Get(v); cv != core.Uncolored {
				f.Add(cv)
			} else {
				wl = append(wl, v)
			}
			size := 0
			work += b.visit(g, v, r, func(u int32) {
				size++
				cu := c.Get(u)
				if cu != core.Uncolored && !f.Has(cu) {
					f.Add(cu)
				} else {
					wl = append(wl, u)
				}
			})
			if len(wl) == 0 {
				continue
			}
			work += int64(len(wl))
			if o.Balance == core.BalanceNone {
				col := int32(size)
				for _, u := range wl {
					col = core.ReverseFit(f, col)
					if col < 0 {
						col = core.FirstFitFrom(f, int32(size)+1)
					}
					c.Set(u, col)
					f.Add(col)
					col--
				}
			} else {
				for _, u := range wl {
					col := p.Pick(f, u)
					c.Set(u, col)
					f.Add(col)
				}
			}
		}
		wls[tid] = wl
		wc.AddChunk(work)
	})
}

// conflictNetPhaseK is the even-k generalization of Algorithm 10: each
// vertex v checks {v} ∪ ball(v, k/2) for duplicate colors, keeping
// first occurrences and uncoloring later ones. The half-radius middle-
// vertex argument guarantees every distance-≤k conflict is seen by at
// least one center.
func conflictNetPhaseK(g *graph.Graph, r int, c *core.Colors, forb []*core.Forbidden, balls []*ball, o *Options, po par.Options, wc *core.WorkCounters) {
	threads := threadsOf(o)
	par.For(g.NumVertices(), po, func(tid, lo, hi int) {
		f := forb[tid]
		b := balls[tid]
		work := int64(core.DispatchCostUnits) * int64(threads)
		for vi := lo; vi < hi; vi++ {
			v := int32(vi)
			f.Reset()
			if cv := c.Get(v); cv != core.Uncolored {
				f.Add(cv)
			}
			work += b.visit(g, v, r, func(u int32) {
				cu := c.Get(u)
				if cu == core.Uncolored {
					return
				}
				if f.Has(cu) {
					c.Set(u, core.Uncolored)
				} else {
					f.Add(cu)
				}
			})
		}
		wc.AddChunk(work)
	})
}

func countColors(r *core.Result) {
	maxCol := int32(-1)
	for _, c := range r.Colors {
		if c > maxCol {
			maxCol = c
		}
	}
	r.MaxColor = maxCol
	if maxCol < 0 {
		r.NumColors = 0
		return
	}
	seen := make([]bool, maxCol+1)
	n := 0
	for _, c := range r.Colors {
		if c >= 0 && !seen[c] {
			seen[c] = true
			n++
		}
	}
	r.NumColors = n
}
