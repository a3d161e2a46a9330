package experiments

import (
	"context"
	"fmt"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/daggen"
	"rbpebble/internal/pebble"
	"rbpebble/internal/solve"
)

// AnytimeDeadline, when set > 0, overrides the largest deadline of the
// anytime ablation's budget ladder (the rbexp CLI exposes this as
// -deadline). The ladder always spans two orders of magnitude below it,
// so the gap-vs-budget curve keeps its shape at any scale.
var AnytimeDeadline time.Duration

// AblationAnytime measures the anytime orchestrator's convergence: the
// certified [lower, upper] interval as a function of the deadline on an
// instance too big to solve exactly within any rung of the ladder
// (fft(3) R=3 takes ~0.3-0.5 s of exact search on a 2-core host even
// with the symmetry reduction; the ladder tops out at 200ms by
// default). Every row must carry a valid certificate — a
// verified incumbent trace and lower <= optimum <= upper — and the gap
// must shrink as the budget grows, reaching 0 on the easy control
// instance that gets a full exact solve.
func AblationAnytime() *Report {
	rep := &Report{
		ID:     "Ablation E",
		Title:  "Anytime certified interval vs. deadline (oneshot)",
		Claim:  "(design choice) deadlines yield certified [lower, upper] intervals whose gap shrinks with budget, instead of solver errors",
		Header: []string{"workload", "deadline", "lower", "upper", "gap%", "optimal", "source"},
	}
	maxD := AnytimeDeadline
	if maxD <= 0 {
		maxD = 200 * time.Millisecond
	}
	ladder := []time.Duration{maxD / 100, maxD / 10, maxD}

	hard := solve.Problem{G: daggen.FFT(3), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	worstGap, lastGap := 0.0, 1.0
	monotone := true
	for _, d := range ladder {
		res, err := anytime.Solve(context.Background(), hard, anytime.Options{Budget: d})
		if err != nil {
			panic(err)
		}
		gap := res.Gap()
		if gap > worstGap {
			worstGap = gap
		}
		if gap > lastGap+1e-9 {
			monotone = false
		}
		lastGap = gap
		rep.Rows = append(rep.Rows, []string{
			"fft(3) R=3", d.String(),
			fmt.Sprintf("%d", res.LowerScaled), fmt.Sprintf("%d", res.UpperScaled),
			ftoa(100 * gap), btoa(res.Optimal), res.Source,
		})
	}

	// Control: an instance the exact engines close well inside the
	// smallest budgets — the interval must collapse to a proven optimum.
	easy := solve.Problem{G: daggen.Pyramid(4), Model: pebble.NewModel(pebble.Oneshot), R: 3}
	res, err := anytime.Solve(context.Background(), easy, anytime.Options{Budget: maxD})
	if err != nil {
		panic(err)
	}
	rep.Rows = append(rep.Rows, []string{
		"pyramid(4) R=3", maxD.String(),
		fmt.Sprintf("%d", res.LowerScaled), fmt.Sprintf("%d", res.UpperScaled),
		ftoa(100 * res.Gap()), btoa(res.Optimal), res.Source,
	})

	verdict := fmt.Sprintf("every budget returned a certified interval (worst gap %.0f%%)", 100*worstGap)
	if !monotone {
		verdict += "; note: gap not monotone on this host (budget rungs too close to the scheduler noise floor)"
	}
	if res.Optimal {
		verdict += "; the control instance closed to a proven optimum"
	}
	rep.Verdict = verdict
	return rep
}
