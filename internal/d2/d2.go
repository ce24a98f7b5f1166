// Package d2 runs the paper's distance-2 graph coloring (D2GC,
// Section IV). D2GC is BGPC on the closed-neighbourhood view of the
// graph (graph.Closed): every vertex v acts as the net covering
// {v} ∪ nbor(v), which is how the paper's net-based D2GC phases
// (Algorithms 9 and 10) are phrased, and two vertices share a net iff
// they are within distance two. The runners, schedules, B1/B2
// balancing, cancellation and repair are therefore internal/core's,
// applied to that view; this package only builds it.
//
// Callers that color one graph repeatedly, or need the view for the
// sequential baseline, repair or completion (core.Sequential,
// core.Repair, core.FinishSequential), should build g.Closed() once
// and call internal/core directly.
package d2

import (
	"context"

	"bgpc/internal/core"
	"bgpc/internal/graph"
)

// Options is the BGPC option set, applied to the closed-neighbourhood
// view unchanged. NetColorVariant selects among Algorithm 8 (the
// default, which on the view is the paper's Algorithm 9) and the
// Algorithm 6 variants, as for BGPC.
type Options = core.Options

// Color runs the speculative parallel D2GC loop with the schedule
// described by opts (see core.Options; the same algorithm names V-V-64D,
// V-N1, V-N2, N1-N2 … apply, per the paper's Table V).
func Color(g *graph.Graph, opts Options) (*core.Result, error) {
	return ColorCtx(context.Background(), g, opts)
}

// ColorCtx is Color with cooperative cancellation: core.ColorCtx on
// g.Closed(). On cancellation it returns the repaired partial
// distance-2 coloring with a *core.CancelError; core.FinishSequential
// on g.Closed() completes it.
func ColorCtx(ctx context.Context, g *graph.Graph, opts Options) (*core.Result, error) {
	return core.ColorCtx(ctx, g.Closed(), opts)
}
