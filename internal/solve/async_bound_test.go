package solve

import (
	"errors"
	"testing"

	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
)

// The async warm-start suite: the bound/certificate chain through the
// async HDA* engine. PruneBound and InitialLowerBound must behave
// exactly as in the serial engine (identical optima, the same
// ErrBoundExhausted certificate), and the streamed certified f-min must
// be monotone and never exceed the true optimum. Run with -race in CI:
// the floors/watermark protocol is lock-free and these tests are its
// adversarial workload.

// TestAsyncPruneBoundKeepsOptimum: the warm-start refinement setting
// (PruneBound = incumbent+1) must still find and prove the exact
// optimum through the async engine at every worker count.
func TestAsyncPruneBoundKeepsOptimum(t *testing.T) {
	g := daggen.Pyramid(4)
	p := prob(g, pebble.Oneshot, 3)
	ref, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := ref.Result.Cost.Scaled(p.Model)

	for _, workers := range []int{2, 4, 8} {
		sol, err := Exact(p, ExactOptions{Parallel: workers, PruneBound: opt + 1})
		if err != nil {
			t.Fatalf("workers=%d prune bound %d: %v", workers, opt+1, err)
		}
		if got := sol.Result.Cost.Scaled(p.Model); got != opt {
			t.Fatalf("workers=%d: pruned optimum %d != %d", workers, got, opt)
		}
	}
}

// TestAsyncPruneBoundCollapsesWork: a floor seeded at the optimum
// (PruneBound = opt) forbids the engine from ever expanding the f = opt
// plateau — where the bulk of the search lives — so the exhaustion
// proof must come far cheaper than the full solve.
func TestAsyncPruneBoundCollapsesWork(t *testing.T) {
	g := daggen.Pyramid(4)
	p := prob(g, pebble.Oneshot, 3)
	var full ExactStats
	ref, err := Exact(p, ExactOptions{Parallel: 4, Stats: &full})
	if err != nil {
		t.Fatal(err)
	}
	opt := ref.Result.Cost.Scaled(p.Model)

	var pruned ExactStats
	_, err = Exact(p, ExactOptions{Parallel: 4, PruneBound: opt, Stats: &pruned})
	if !errors.Is(err, ErrBoundExhausted) {
		t.Fatalf("err = %v, want ErrBoundExhausted", err)
	}
	if pruned.Expanded >= full.Expanded {
		t.Fatalf("bound at the optimum did not collapse work: %d >= %d expansions",
			pruned.Expanded, full.Expanded)
	}
}

// TestAsyncPruneBoundExhaustionCertifies: with PruneBound at exactly
// the optimum the async engine must exhaust at every worker count and
// return ErrBoundExhausted with LowerBound == PruneBound — the parallel
// optimality certificate a warm-started refinement relies on.
func TestAsyncPruneBoundExhaustionCertifies(t *testing.T) {
	g := daggen.Pyramid(4)
	p := prob(g, pebble.Oneshot, 3)
	ref, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := ref.Result.Cost.Scaled(p.Model)

	for _, workers := range []int{2, 4, 8} {
		var s ExactStats
		_, err = Exact(p, ExactOptions{Parallel: workers, PruneBound: opt, Stats: &s})
		if !errors.Is(err, ErrBoundExhausted) {
			t.Fatalf("workers=%d: err = %v, want ErrBoundExhausted", workers, err)
		}
		if s.LowerBound != opt {
			t.Fatalf("workers=%d: LowerBound = %d, want %d", workers, s.LowerBound, opt)
		}
	}
}

// TestAsyncPruneBoundMatchesSerialEverywhere: across models,
// conventions and worker counts, the async engine under the warm-start
// bound proves the serial optimum (and errs exactly when the serial
// engine with the same bound errs).
func TestAsyncPruneBoundMatchesSerialEverywhere(t *testing.T) {
	conventions := []pebble.Convention{
		{},
		{SourcesStartBlue: true, SinksMustBeBlue: true},
	}
	for seed := int64(0); seed < 2; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		r := pebble.MinFeasibleR(g)
		for _, kind := range pebble.AllKinds() {
			m := pebble.NewModel(kind)
			for _, conv := range conventions {
				p := Problem{G: g, Model: m, R: r, Convention: conv}
				serial, serr := Exact(p, ExactOptions{})
				if serr != nil {
					continue
				}
				opt := serial.Result.Cost.Scaled(m)
				for _, workers := range []int{2, 4} {
					sol, err := Exact(p, ExactOptions{
						Limits:   Limits{InitialLowerBound: opt / 2},
						Parallel: workers, PruneBound: opt + 1,
					})
					if err != nil {
						t.Fatalf("seed %d %v %s workers=%d: %v", seed, kind, convName(conv), workers, err)
					}
					if got := sol.Result.Cost.Scaled(m); got != opt {
						t.Errorf("seed %d %v %s workers=%d: bounded async cost %d != serial %d",
							seed, kind, convName(conv), workers, got, opt)
					}
				}
			}
		}
	}
}

// TestAsyncInitialLowerBoundSeedsCertificate: a caller-certified floor
// must survive into the harvested LowerBound even when the async
// search is canceled before it could prove anything on its own.
func TestAsyncInitialLowerBoundSeedsCertificate(t *testing.T) {
	g := daggen.Pyramid(4)
	p := prob(g, pebble.Oneshot, 3)
	ref, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := ref.Result.Cost.Scaled(p.Model)

	canceled := make(chan struct{})
	close(canceled)
	var s ExactStats
	_, err = Exact(p, ExactOptions{Limits: Limits{InitialLowerBound: opt, Cancel: canceled}, Parallel: 4, Stats: &s})
	if err == nil {
		// The cancellation raced the (tiny) solve to completion; the
		// proven optimum is an even stronger certificate.
		return
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if s.LowerBound < opt {
		t.Fatalf("LowerBound = %d, want >= seeded %d", s.LowerBound, opt)
	}
}

// TestAsyncStreamedBoundMonotone: the mid-flight certified f-min
// streamed through Progress must be non-decreasing (the engine emits on
// bound improvement AND on the sampling cadence, so a slow solve may
// repeat its current bound) and never exceed the true optimum, across
// models, conventions and worker counts. Progress runs on the
// coordinator goroutine — the same one that called Exact — so the
// plain slice append is race-free by construction.
func TestAsyncStreamedBoundMonotone(t *testing.T) {
	conventions := []pebble.Convention{
		{},
		{SourcesStartBlue: true},
		{SinksMustBeBlue: true},
		{SourcesStartBlue: true, SinksMustBeBlue: true},
	}
	for seed := int64(0); seed < 2; seed++ {
		g := daggen.RandomLayered(3, 3, 2, seed)
		r := pebble.MinFeasibleR(g)
		for _, kind := range pebble.AllKinds() {
			m := pebble.NewModel(kind)
			for _, conv := range conventions {
				p := Problem{G: g, Model: m, R: r, Convention: conv}
				serial, serr := Exact(p, ExactOptions{})
				if serr != nil {
					continue
				}
				opt := serial.Result.Cost.Scaled(m)
				for _, workers := range []int{1, 2, 4, 8} {
					var bounds []int64
					sol, err := Exact(p, ExactOptions{
						Limits:   Limits{Progress: func(pr ExactProgress) { bounds = append(bounds, pr.LowerBound) }},
						Parallel: workers,
					})
					if err != nil {
						t.Fatalf("seed %d %v %s workers=%d: %v", seed, kind, convName(conv), workers, err)
					}
					if got := sol.Result.Cost.Scaled(m); got != opt {
						t.Fatalf("seed %d %v %s workers=%d: cost %d != serial %d",
							seed, kind, convName(conv), workers, got, opt)
					}
					for i, b := range bounds {
						if b > opt {
							t.Fatalf("seed %d %v %s workers=%d: streamed bound %d exceeds optimum %d",
								seed, kind, convName(conv), workers, b, opt)
						}
						if i > 0 && b < bounds[i-1] {
							t.Fatalf("seed %d %v %s workers=%d: bound stream regressed: %v",
								seed, kind, convName(conv), workers, bounds)
						}
					}
				}
			}
		}
	}
}

// TestAsyncStreamsMidflightBound: on an instance with a real gap
// between the root estimate and the optimum, the async engine must
// stream at least one certified improvement while running — the
// capability the anytime orchestrator exposes under Workers > 1.
func TestAsyncStreamsMidflightBound(t *testing.T) {
	p := prob(daggen.Pyramid(5), pebble.Oneshot, 4)
	serial, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := serial.Result.Cost.Scaled(p.Model)
	h0, err := RootLowerBound(p, HeuristicAuto)
	if err != nil {
		t.Fatal(err)
	}
	if h0 >= opt {
		t.Fatalf("instance closed at the root (h0 %d >= opt %d); pick a harder one", h0, opt)
	}

	var bounds []int64
	if _, err := Exact(p, ExactOptions{
		Limits:   Limits{Progress: func(pr ExactProgress) { bounds = append(bounds, pr.LowerBound) }},
		Parallel: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if len(bounds) == 0 {
		t.Fatal("async engine streamed no certified bounds mid-flight")
	}
	for _, b := range bounds {
		if b <= h0 || b > opt {
			t.Fatalf("streamed bound %d outside certified range (%d, %d]", b, h0, opt)
		}
	}
}
