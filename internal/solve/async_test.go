package solve

import (
	"errors"
	"testing"
	"time"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// TestAsyncMatchesSerialEverywhere is the async-termination property
// test: the asynchronous HDA* engine must prove exactly the serial
// optimum across all four models, every convention combination and
// 1/2/4/8 workers. A termination-detection bug (declaring done with
// proposals in flight) or a throttle bug that turned into a correctness
// gate would surface here as a cost mismatch or a hang.
func TestAsyncMatchesSerialEverywhere(t *testing.T) {
	conventions := []pebble.Convention{
		{},
		{SourcesStartBlue: true},
		{SinksMustBeBlue: true},
		{SourcesStartBlue: true, SinksMustBeBlue: true},
	}
	for seed := int64(0); seed < 3; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		r := pebble.MinFeasibleR(g)
		for _, kind := range pebble.AllKinds() {
			m := pebble.NewModel(kind)
			for _, conv := range conventions {
				p := Problem{G: g, Model: m, R: r, Convention: conv}
				serial, serr := Exact(p, ExactOptions{})
				for _, workers := range []int{1, 2, 4, 8} {
					par, perr := Exact(p, ExactOptions{Parallel: workers})
					if (serr == nil) != (perr == nil) {
						t.Fatalf("seed %d %v %s workers=%d: error mismatch: serial %v, async %v",
							seed, kind, convName(conv), workers, serr, perr)
					}
					if serr != nil {
						continue
					}
					if par.Result.Cost.Scaled(m) != serial.Result.Cost.Scaled(m) {
						t.Errorf("seed %d %v %s workers=%d: async cost %v != serial %v",
							seed, kind, convName(conv), workers, par.Result.Cost, serial.Result.Cost)
					}
				}
			}
		}
	}

	// Symmetric DAGs, where the engines search orbits of Aut(G): serial
	// A*, async HDA* at 2 workers and IDA* must each prove the optimum of
	// the unreduced Dijkstra reference (HeuristicOff builds no chain).
	// Every graph runs every model in one of the two conventions (the
	// paper's and Hong-Kung's), alternating, so each model meets both
	// across the set. Base and compcost run on the smallest graph only:
	// their zero-cost compute/delete plateaus make the reference search
	// expensive.
	for gi, tc := range symmetricCases() {
		for ki, kind := range pebble.AllKinds() {
			if tc.g.N() > 12 && (kind == pebble.Base || kind == pebble.CompCost) {
				continue
			}
			conv := conventions[3*((gi+ki)%2)] // default or srcBlue+sinkBlue
			p := Problem{G: tc.g, Model: pebble.NewModel(kind), R: 3, Convention: conv}
			ref, err := Exact(p, ExactOptions{Heuristic: HeuristicOff})
			if err != nil {
				t.Fatalf("%s %v %s: reference: %v", tc.name, kind, convName(conv), err)
			}
			want := ref.Result.Cost.Scaled(p.Model)
			check := func(engine string, sol Solution, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s %v %s %s: %v", tc.name, kind, convName(conv), engine, err)
				}
				if got := sol.Result.Cost.Scaled(p.Model); got != want {
					t.Errorf("%s %v %s %s: cost %d != unreduced optimum %d", tc.name, kind, convName(conv), engine, got, want)
				}
			}
			sol, err := Exact(p, ExactOptions{})
			check("serial", sol, err)
			sol, err = Exact(p, ExactOptions{Parallel: 2})
			check("async-2", sol, err)
			if kind == pebble.Oneshot || kind == pebble.NoDel {
				sol, err = ExactDFS(p, ExactDFSOptions{})
				check("ida*", sol, err)
			}
		}
	}
}

// symmetricCases are the engine-agreement inputs with non-trivial
// automorphism groups; R=3 is feasible (and smallest) on each.
func symmetricCases() []orbitGraph {
	return []orbitGraph{
		{"fft2", daggen.FFT(2), 64},
		{"matmul2", daggen.MatMul(2), 16},
		{"pyramid4", daggen.Pyramid(4), 2},
		{"2xpyramid3", disjointUnion(daggen.Pyramid(3), daggen.Pyramid(3)), 8},
	}
}

// TestAsyncSlowShard injects heavy latency into one shard and checks
// the engine still terminates with the exact optimum: the slow shard
// cannot be skipped (its mailboxes must drain, its frontier must be
// exhausted) and the counting protocol must not declare termination
// around it.
func TestAsyncSlowShard(t *testing.T) {
	defer func() { asyncTestDelay = nil }()
	asyncTestDelay = func(worker int) {
		if worker == 1 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	for _, kind := range []pebble.ModelKind{pebble.Oneshot, pebble.Base} {
		g := daggen.Pyramid(3)
		p := Problem{G: g, Model: pebble.NewModel(kind), R: 3}
		asyncTestDelay = nil
		serial, err := Exact(p, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		asyncTestDelay = func(worker int) {
			if worker == 1 {
				time.Sleep(200 * time.Microsecond)
			}
		}
		par, err := Exact(p, ExactOptions{Parallel: 4})
		if err != nil {
			t.Fatalf("%v slow shard: %v", kind, err)
		}
		// Scaled cost, not the full struct: in the base model computes
		// are free, so equally-optimal witnesses may differ in them.
		if par.Result.Cost.Scaled(p.Model) != serial.Result.Cost.Scaled(p.Model) {
			t.Fatalf("%v slow shard: cost %v != serial %v", kind, par.Result.Cost, serial.Result.Cost)
		}
	}
}

// TestAsyncStateLimit checks the budget error surfaces from the async
// engine (the abort must reach every worker and the coordinator).
func TestAsyncStateLimit(t *testing.T) {
	g := daggen.Pyramid(3)
	_, err := Exact(Problem{G: g, Model: pebble.NewModel(pebble.Base), R: 3},
		ExactOptions{MaxStates: 5, Parallel: 4})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
}

// TestAsyncEngineSelection checks that Parallel > 1 selects the async
// engine and that it answers like the serial loop on a nontrivial
// instance.
func TestAsyncEngineSelection(t *testing.T) {
	p := Problem{G: daggen.Grid(3, 3), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	serial, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var engines []string
	sol, err := Exact(p, ExactOptions{
		Limits: Limits{
			Progress:      func(pr ExactProgress) { engines = append(engines, pr.Engine) },
			ProgressEvery: time.Nanosecond,
		},
		Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Result.Cost != serial.Result.Cost {
		t.Fatalf("async cost %v != serial %v", sol.Result.Cost, serial.Result.Cost)
	}
	for _, e := range engines {
		if e != "async-hda" {
			t.Fatalf("Parallel: 4 ran engine %q, want async-hda", e)
		}
	}
}

// TestAsyncStatsPopulated checks the stats out-parameter from the async
// engine.
func TestAsyncStatsPopulated(t *testing.T) {
	var st ExactStats
	g := daggen.Pyramid(3)
	_, err := Exact(Problem{G: g, Model: pebble.NewModel(pebble.Oneshot), R: 3},
		ExactOptions{Parallel: 4, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.Expanded <= 0 || st.Pushed <= 0 || st.Distinct <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}
