package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/service"
)

// instance is one generated pebbling problem in its generator labeling.
type instance struct {
	Name     string
	G        *dag.DAG
	Model    string // wire model name: base|oneshot|nodel|compcost
	EpsDenom int    // compcost ε denominator (0 otherwise)
	R        int    // 0 = the server default Δ+1
	Opt      int64  // pinned scaled optimum; 0 = unknown
}

// exactCorpus is the exact-cold corpus: small instances across all four
// of the paper's models with their pinned scaled optima.
func exactCorpus() []instance {
	return []instance{
		{Name: "pyramid(5) R4 oneshot", G: daggen.Pyramid(5), Model: "oneshot", R: 4, Opt: 8},
		{Name: "pyramid(6) R4 oneshot", G: daggen.Pyramid(6), Model: "oneshot", R: 4, Opt: 12},
		{Name: "grid 5x5 R3 oneshot", G: daggen.Grid(5, 5), Model: "oneshot", R: 3, Opt: 24},
		{Name: "grid 5x5 R4 oneshot", G: daggen.Grid(5, 5), Model: "oneshot", R: 4, Opt: 8},
		{Name: "matmul(2) R4 oneshot", G: daggen.MatMul(2), Model: "oneshot", R: 4, Opt: 10},
		{Name: "stencil1D(6,4) R5 oneshot", G: daggen.Stencil1D(6, 4), Model: "oneshot", R: 5, Opt: 15},
		{Name: "pyramid(5) R4 nodel", G: daggen.Pyramid(5), Model: "nodel", R: 4, Opt: 25},
		{Name: "grid 4x4 R3 nodel", G: daggen.Grid(4, 4), Model: "nodel", R: 3, Opt: 25},
		{Name: "fft(2) R3 base", G: daggen.FFT(2), Model: "base", R: 3, Opt: 7},
		{Name: "pyramid(4) R4 base", G: daggen.Pyramid(4), Model: "base", R: 4, Opt: 4},
		{Name: "fft(2) R3 compcost 1/100", G: daggen.FFT(2), Model: "compcost", EpsDenom: 100, R: 3, Opt: 714},
		{Name: "fft(3) R3 oneshot", G: daggen.FFT(3), Model: "oneshot", R: 3, Opt: 31},
	}
}

// hitPool is the hit-relabel pool: 100-500-node graphs whose canonical
// labeling dominates a cache hit. Optima are unknown.
func hitPool() []instance {
	return []instance{
		{Name: "pyramid(20)", G: daggen.Pyramid(20), Model: "oneshot"},
		{Name: "grid 15x15", G: daggen.Grid(15, 15), Model: "oneshot"},
		{Name: "fft(5)", G: daggen.FFT(5), Model: "oneshot"},
		{Name: "fft(6)", G: daggen.FFT(6), Model: "oneshot"},
		{Name: "matmul(4)", G: daggen.MatMul(4), Model: "oneshot"},
		{Name: "random-layered 20x20", G: daggen.RandomLayered(20, 20, 2, 20), Model: "oneshot"},
		{Name: "stencil1D(20,20)", G: daggen.Stencil1D(20, 20), Model: "oneshot"},
		{Name: "binary tree(8)", G: daggen.BinaryTree(8), Model: "oneshot"},
	}
}

// mixPool is the deadline-mix hit pool: the exact-cold instances that
// set-up can prove optimal in well under a second, so every batch item
// is served from a proven optimum and checked against its pinned value.
func mixPool() []instance {
	var out []instance
	for _, in := range exactCorpus() {
		switch in.Name {
		case "pyramid(5) R4 oneshot", "grid 5x5 R3 oneshot", "grid 5x5 R4 oneshot",
			"grid 4x4 R3 nodel", "stencil1D(6,4) R5 oneshot", "matmul(2) R4 oneshot":
			out = append(out, in)
		}
	}
	return out
}

// Random streams. Every stream is a PCG keyed by (seed, stream id), so
// each request body depends only on the seed and its own index: the
// same seed reproduces byte-identical bodies however long a run lasts.
const (
	streamExactPass = 1 << 32 // + pass index
	streamHitClient = 2 << 32 // + client<<20 + round index
	streamHitLabel  = 8 << 32 // + client<<20 + request index
	streamHitSetup  = 3 << 32
	streamColdItem  = 4 << 32 // + cold index
	streamMixBatch  = 5 << 32 // + batch index
	streamMixSetup  = 6 << 32
	streamGridOrder = 7 << 32
)

func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// relabel returns g with its node IDs permuted by r (labels dropped).
func relabel(g *dag.DAG, r *rand.Rand) *dag.DAG {
	n := g.N()
	perm := r.Perm(n)
	h := dag.New(n)
	for v := 0; v < n; v++ {
		for _, w := range g.Succs(dag.NodeID(v)) {
			h.AddEdge(dag.NodeID(perm[v]), dag.NodeID(perm[w]))
		}
	}
	return h
}

// request is one generated solve request: the wire body plus what the
// client needs to check the answer.
type request struct {
	Inst     instance
	G        *dag.DAG // the graph as sent (relabeled)
	Deadline int      // ms
	Body     []byte
}

func solveRequest(in instance, g *dag.DAG, deadlineMS int) service.SolveRequest {
	raw, err := json.Marshal(g)
	if err != nil {
		panic(fmt.Sprintf("marshal %s: %v", in.Name, err)) // a generated DAG always encodes
	}
	return service.SolveRequest{
		DAG: raw, Model: in.Model, EpsDenom: in.EpsDenom, R: in.R,
		DeadlineMS: deadlineMS, IncludeTrace: true,
	}
}

func newRequest(in instance, g *dag.DAG, deadlineMS int) request {
	body, err := json.Marshal(solveRequest(in, g, deadlineMS))
	if err != nil {
		panic(err)
	}
	return request{Inst: in, G: g, Deadline: deadlineMS, Body: body}
}

// batch is one generated POST /solve/batch request.
type batch struct {
	Items    []request
	Deadline int
	Body     []byte
}

// Deadlines of the generated requests, in milliseconds.
const (
	exactDeadlineMS = 30000 // generous: every exact-cold solve proves its optimum
	exactWarmUpMS   = 50
	hitSetupMS      = 256 // budget tier 9: the pool's stored intervals
	hitRequestMS    = 100 // budget tier 7 < 9: every request is served from the cache
	mixBatchMS      = 100
	mixSetupMS      = 30000
	mixBatchItems   = 8
)

// coldLadderMS spans the server's 150 ms fast-lane threshold.
var coldLadderMS = [...]int{50, 100, 200, 400}

// exactPass returns pass p of exact-cold: the corpus in a seeded order,
// each instance under a fresh seeded labeling.
func exactPass(seed int64, p int) []request {
	r := rng(seed, streamExactPass+uint64(p))
	corpus := exactCorpus()
	out := make([]request, 0, len(corpus))
	for _, i := range r.Perm(len(corpus)) {
		in := corpus[i]
		out = append(out, newRequest(in, relabel(in.G, r), exactDeadlineMS))
	}
	return out
}

// exactWarmUp is exact-cold's set-up request: an instance outside the
// corpus, so that no measured request finds anything cached, under a
// deadline it cannot beat, so that the set-up time is held by the
// deadline rather than by scheduling noise.
func exactWarmUp() request {
	in := instance{Name: "pyramid(8) R4 oneshot", G: daggen.Pyramid(8), Model: "oneshot", R: 4}
	return newRequest(in, in.G, exactWarmUpMS)
}

// hitSetup returns the set-up solves of hit-relabel: each pool instance
// once, at the high budget tier.
func hitSetup(seed int64) []request {
	r := rng(seed, streamHitSetup)
	var out []request
	for _, in := range hitPool() {
		out = append(out, newRequest(in, relabel(in.G, r), hitSetupMS))
	}
	return out
}

// hitRequest returns request i of hit-relabel client c. Each client
// walks the pool in rounds, every round a seeded permutation of it, so
// every run sends the pool's instances in equal shares; each request
// carries its own seeded labeling, at the low budget tier.
func hitRequest(seed int64, c, i int) request {
	pool := hitPool()
	round := rng(seed, streamHitClient+uint64(c)<<20+uint64(i/len(pool))).Perm(len(pool))
	in := pool[round[i%len(pool)]]
	return newRequest(in, relabel(in.G, rng(seed, streamHitLabel+uint64(c)<<20+uint64(i))), hitRequestMS)
}

// coldPlan generates deadline-mix's stream of distinct cold instances.
type coldPlan struct {
	seed  int64
	grids [][2]int // seeded order of distinct grid shapes above 512 nodes
}

func newColdPlan(seed int64) *coldPlan {
	var grids [][2]int
	for rows := 23; rows <= 50; rows++ {
		for cols := 23; cols <= 50; cols++ {
			grids = append(grids, [2]int{rows, cols})
		}
	}
	r := rng(seed, streamGridOrder)
	r.Shuffle(len(grids), func(i, j int) { grids[i], grids[j] = grids[j], grids[i] })
	return &coldPlan{seed: seed, grids: grids}
}

// request returns cold request i: even indices are seeded random-layered
// DAGs of at most 512 nodes (canonically labeled by the server), odd
// ones are grids above 512 nodes (keyed on their representation).
func (cp *coldPlan) request(i int) request {
	r := rng(cp.seed, streamColdItem+uint64(i))
	// Each kind of instance cycles through the whole deadline ladder.
	deadline := coldLadderMS[(i/2)%len(coldLadderMS)]
	if i%2 == 1 {
		sh := cp.grids[(i/2)%len(cp.grids)]
		in := instance{Name: fmt.Sprintf("grid %dx%d", sh[0], sh[1]), G: daggen.Grid(sh[0], sh[1]), Model: "oneshot"}
		return newRequest(in, in.G, deadline)
	}
	layers := 8 + r.IntN(13) // at most 20 layers of 24: 480 nodes
	width := 8 + r.IntN(17)
	maxIn := 2 + r.IntN(2)
	g := daggen.RandomLayered(layers, width, maxIn, r.Int64())
	in := instance{Name: fmt.Sprintf("random-layered %dx%d", layers, width), G: g, Model: "oneshot"}
	return newRequest(in, relabel(g, r), deadline)
}

// mixSetup returns deadline-mix's set-up solves: each pool instance
// once, with a generous deadline, so set-up proves every optimum.
func mixSetup(seed int64) []request {
	r := rng(seed, streamMixSetup)
	var out []request
	for _, in := range mixPool() {
		out = append(out, newRequest(in, relabel(in.G, r), mixSetupMS))
	}
	return out
}

// mixBatch returns hit batch i of deadline-mix: items drawn with
// replacement from the pre-solved pool (so batches carry in-batch
// duplicates), each under its own seeded labeling.
func mixBatch(seed int64, i int) batch {
	r := rng(seed, streamMixBatch+uint64(i))
	pool := mixPool()
	b := batch{Deadline: mixBatchMS}
	req := service.BatchRequest{DeadlineMS: mixBatchMS, IncludeTrace: true}
	for k := 0; k < mixBatchItems; k++ {
		in := pool[r.IntN(len(pool))]
		g := relabel(in.G, r)
		sr := solveRequest(in, g, 0)
		sr.IncludeTrace = false // batch-wide
		req.Items = append(req.Items, sr)
		b.Items = append(b.Items, request{Inst: in, G: g, Deadline: mixBatchMS})
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	b.Body = body
	return b
}
