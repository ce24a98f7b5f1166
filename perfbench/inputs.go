package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"bgpc/internal/bipartite"
	"bgpc/internal/gen"
	"bgpc/internal/graph"
)

// Every input the servers see is generated here from the -seed
// argument with math/rand/v2's PCG, so the inputs do not change when
// the program's own generators or RNG change. Only the preset graphs
// come from internal/gen, because the daemon builds presets itself.

const (
	numClients = 2 // closed-loop clients; the benchmark box has 2 cores

	// ingestCopies relabelled copies are made of each ingest base
	// graph. 3×40 = 120 distinct bodies, each client cycling through
	// its 60, so a body recurs only after ~118 other inline requests:
	// far past the daemon's 64-entry LRU, which therefore always
	// misses.
	ingestCopies = 40

	chainDeltas = 8 // deltas per delta-fleet chain
	deltaEdges  = 4 // inserted edges per delta
)

// target is one graph the benchmark can check a coloring against.
type target struct {
	name string
	g    *bipartite.Graph
	ug   *graph.Graph // undirected view, set for d2 targets
	fpU  uint64       // g.Fingerprint()
	fp   string       // %016x of fpU
}

func newTarget(name string, g *bipartite.Graph, d2 bool) (*target, error) {
	fp := g.Fingerprint()
	t := &target{name: name, g: g, fpU: fp, fp: fmt.Sprintf("%016x", fp)}
	if d2 {
		ug, err := graph.FromBipartite(g)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		t.ug = ug
	}
	return t, nil
}

// colorOp is one POST /color with the graph its answer is checked
// against.
type colorOp struct {
	label string // entry name, for per-entry reporting
	body  []byte
	tgt   *target
}

// ingestInputs: inline MatrixMarket bodies, every one distinct.
type ingestInputs struct {
	ops  []colorOp
	seqs [numClients][]int // per-client cycle of indexes into ops
}

var ingestBases = []struct {
	preset string
	scale  float64
}{{"channel", 0.1}, {"copapers", 0.1}, {"channel", 0.5}}

func genIngest(seed uint64) (*ingestInputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0x1a6e57))
	in := &ingestInputs{}
	perKind := make([][]int, len(ingestBases))
	for k, b := range ingestBases {
		base, err := gen.Preset(b.preset, b.scale)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%s@%g", b.preset, b.scale)
		for c := 0; c < ingestCopies; c++ {
			g, err := relabel(base, rng.Perm(base.NumVertices()))
			if err != nil {
				return nil, err
			}
			tgt, err := newTarget(label, g, false)
			if err != nil {
				return nil, err
			}
			perKind[k] = append(perKind[k], len(in.ops))
			in.ops = append(in.ops, colorOp{label: label, body: colorBody(map[string]any{"matrix": mtxText(g)}, "N1-N2", ""), tgt: tgt})
		}
		rng.Shuffle(len(perKind[k]), func(i, j int) { perKind[k][i], perKind[k][j] = perKind[k][j], perKind[k][i] })
	}
	// Each client gets every other copy of every kind, interleaved
	// kind by kind, so both clients carry the same mix.
	for r := 0; r < ingestCopies/numClients; r++ {
		for c := 0; c < numClients; c++ {
			for _, k := range rng.Perm(len(ingestBases)) {
				in.seqs[c] = append(in.seqs[c], perKind[k][r*numClients+c])
			}
		}
	}
	return in, nil
}

// relabel returns g with its vertex (column) ids permuted by perm.
func relabel(g *bipartite.Graph, perm []int) (*bipartite.Graph, error) {
	edges := make([]bipartite.Edge, 0, g.NumEdges())
	for v := int32(0); int(v) < g.NumNets(); v++ {
		for _, u := range g.Vtxs(v) {
			edges = append(edges, bipartite.Edge{Net: v, Vtx: int32(perm[u])})
		}
	}
	return bipartite.FromEdges(g.NumNets(), g.NumVertices(), edges)
}

// mtxText serialises g as a MatrixMarket pattern matrix, net by net.
func mtxText(g *bipartite.Graph) string {
	var sb strings.Builder
	sb.Grow(int(g.NumEdges()) * 12)
	fmt.Fprintf(&sb, "%%%%MatrixMarket matrix coordinate pattern general\n%d %d %d\n", g.NumNets(), g.NumVertices(), g.NumEdges())
	var line []byte
	for v := int32(0); int(v) < g.NumNets(); v++ {
		for _, u := range g.Vtxs(v) {
			line = strconv.AppendInt(line[:0], int64(v)+1, 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(u)+1, 10)
			line = append(line, '\n')
			sb.Write(line)
		}
	}
	return sb.String()
}

// colorBody renders a POST /color body: the graph fields (an inline
// "matrix", or a "preset" and its "scale") plus algorithm and mode.
func colorBody(graph map[string]any, algorithm, mode string) []byte {
	graph["algorithm"] = algorithm
	if mode != "" {
		graph["mode"] = mode
	}
	b, err := json.Marshal(graph)
	if err != nil {
		panic(err) // strings and numbers only: cannot fail
	}
	return b
}

// kernelEntry is one cached-preset request shape of the kernel mix.
// Weights keep every entry under half the run's service time (the
// largest, channel@1.0 and copapers, are ~27% each); main prints the
// measured shares. They also keep the median op off the edge between
// two entries: of every thirty ops, eleven (movielens, V-V-64D) are
// faster than the channel@0.1 N1-N2 and d2 group and five slower, so
// the median falls a third of the way into that group. A median on an
// edge moves with how two entries' speeds drift apart, and so more
// than the machine's speed does.
type kernelEntry struct {
	preset    string
	scale     float64
	algorithm string
	mode      string
	weight    int
}

var kernelEntries = []kernelEntry{
	{"channel", 0.1, "N1-N2", "", 8},
	{"copapers", 0.1, "N1-N2", "", 4},
	{"movielens", 0.1, "N1-N2", "", 5},
	{"channel", 0.1, "V-V-64D", "", 6},
	{"channel", 1.0, "N1-N2", "", 1},
	{"channel", 0.1, "N1-N2", "d2", 6},
}

// kernelCycles is how many weight-exact cycles make up each client's
// op sequence: every cycle holds each entry exactly weight times, in a
// seeded order, so the mix is the same whatever the seed.
const kernelCycles = 128

type kernelInputs struct {
	ops  []colorOp // one per kernelEntries entry
	seqs [numClients][]int
}

func genKernel(seed uint64) (*kernelInputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6b65726e))
	in := &kernelInputs{}
	graphs := map[string]*bipartite.Graph{}
	for _, e := range kernelEntries {
		key := fmt.Sprintf("%s@%g", e.preset, e.scale)
		g, ok := graphs[key]
		if !ok {
			var err error
			if g, err = gen.Preset(e.preset, e.scale); err != nil {
				return nil, err
			}
			graphs[key] = g
		}
		label := key + "/" + e.algorithm
		if e.mode != "" {
			label += "/" + e.mode
		}
		tgt, err := newTarget(label, g, e.mode == "d2")
		if err != nil {
			return nil, err
		}
		in.ops = append(in.ops, colorOp{label: label, body: colorBody(map[string]any{"preset": e.preset, "scale": e.scale}, e.algorithm, e.mode), tgt: tgt})
	}
	var cycle []int
	for k, e := range kernelEntries {
		for i := 0; i < e.weight; i++ {
			cycle = append(cycle, k)
		}
	}
	for c := range in.seqs {
		for i := 0; i < kernelCycles; i++ {
			rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
			in.seqs[c] = append(in.seqs[c], cycle...)
		}
	}
	return in, nil
}

// fleetBase is one delta-fleet chain base: a preset the chain's first
// op colors (a cached full /color), in bgpc or d2 mode.
type fleetBase struct {
	mode string // "" (bgpc) or "d2"
	body []byte
	tgt  *target
}

// fleetInputs: the 12 chain bases, split between the clients. Each
// client owns its bases, as a graph-editing loop owns its graph, so
// which backend holds which chain state does not depend on how the two
// clients interleave; chains themselves are drawn lazily (chain.go)
// from a per-client stream.
type fleetInputs struct {
	bases []*fleetBase
	own   [numClients][]int // indexes into bases
	seed  uint64
}

func genFleet(seed uint64) (*fleetInputs, error) {
	in := &fleetInputs{seed: seed}
	add := func(preset string, scale float64, mode string) error {
		g, err := gen.Preset(preset, scale)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("%s@%.4g", preset, scale)
		if mode != "" {
			label += "/" + mode
		}
		tgt, err := newTarget(label, g, mode == "d2")
		if err != nil {
			return err
		}
		in.bases = append(in.bases, &fleetBase{mode: mode,
			body: colorBody(map[string]any{"preset": preset, "scale": scale}, "N1-N2", mode), tgt: tgt})
		return nil
	}
	ch, err := gen.ScaleRungs("channel", 0.1, 7)
	if err != nil {
		return nil, err
	}
	ml, err := gen.ScaleRungs("movielens", 0.1, 5)
	if err != nil {
		return nil, err
	}
	for _, s := range ch[:6] {
		if err := add("channel", s, ""); err != nil {
			return nil, err
		}
	}
	for _, s := range ml {
		if err := add("movielens", s, ""); err != nil {
			return nil, err
		}
	}
	// The d2 chain gets a rung no bgpc chain uses, so the two modes
	// never share a cache entry.
	if err := add("channel", ch[6], "d2"); err != nil {
		return nil, err
	}
	// Deal bases by size so both clients carry the same load.
	order := make([]int, len(in.bases))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return in.bases[order[i]].tgt.g.NumEdges() < in.bases[order[j]].tgt.g.NumEdges()
	})
	for i, b := range order {
		in.own[i%numClients] = append(in.own[i%numClients], b)
	}
	return in, nil
}

// chainGen draws one client's delta chains: each takes the next of the
// client's bases — every base once per cycle, in a seeded order, so
// the mix does not depend on the seed — and eight deltas of four
// inserted edges. Every chain is new, so each delta's result graph is
// new to the fleet and the write path (cache insert, WAL append) runs
// on every delta.
type chainGen struct {
	in   *fleetInputs
	deck []int // bases left in the current cycle
	own  []int
	rng  *rand.Rand
}

func newChainGen(in *fleetInputs, client int) *chainGen {
	return &chainGen{in: in, own: in.own[client],
		rng: rand.New(rand.NewPCG(in.seed, 0xde17a0+uint64(client)))}
}

// chain is one drawn chain: its base and its deltas' insert lists.
type chain struct {
	base   *fleetBase
	insert [chainDeltas][]bipartite.Edge
}

func (cg *chainGen) draw() *chain {
	if len(cg.deck) == 0 {
		cg.deck = append(cg.deck, cg.own...)
		cg.rng.Shuffle(len(cg.deck), func(i, j int) { cg.deck[i], cg.deck[j] = cg.deck[j], cg.deck[i] })
	}
	ch := &chain{base: cg.in.bases[cg.deck[0]]}
	cg.deck = cg.deck[1:]
	g := ch.base.tgt.g
	for k := range ch.insert {
		edges := make([]bipartite.Edge, 0, deltaEdges)
		if ch.base.mode == "d2" {
			// Distance-2 deltas must keep the matrix structurally
			// symmetric: insert mirrored off-diagonal pairs.
			n := g.NumVertices()
			for len(edges) < deltaEdges {
				a, b := int32(cg.rng.IntN(n)), int32(cg.rng.IntN(n))
				if a == b {
					continue
				}
				edges = append(edges, bipartite.Edge{Net: a, Vtx: b}, bipartite.Edge{Net: b, Vtx: a})
			}
		} else {
			for len(edges) < deltaEdges {
				edges = append(edges, bipartite.Edge{Net: int32(cg.rng.IntN(g.NumNets())), Vtx: int32(cg.rng.IntN(g.NumVertices()))})
			}
		}
		ch.insert[k] = edges
	}
	return ch
}

// deltaBody renders a POST /color/{fp}/delta body.
func deltaBody(insert []bipartite.Edge, mode string) []byte {
	var sb strings.Builder
	sb.WriteString(`{"insert":[`)
	for i, e := range insert {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d]", e.Net, e.Vtx)
	}
	sb.WriteString("]")
	if mode != "" {
		fmt.Fprintf(&sb, `,"mode":%q`, mode)
	}
	sb.WriteString("}")
	return []byte(sb.String())
}
