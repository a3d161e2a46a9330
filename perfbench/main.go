// Command perfbench is the repository benchmark: it drives in-process
// rbserve nodes and an rbproxy with closed-loop HTTP clients, checks
// every answer, and prints the end-to-end metrics of one workload; with
// -trace 1 it also replays the workload's inputs through each layer's
// public functions and prints per-layer metrics derived from the spans.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload hit-relabel --seed 1 --seconds 20 --trace 0
//
// Workloads: exact-cold, hit-relabel, deadline-mix (see BENCHMARK.json).
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The run exits non-zero when
// any answer is wrong.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

func main() {
	name := flag.String("workload", "", "exact-cold | hit-relabel | deadline-mix")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of one timed loop")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload exact-cold|hit-relabel|deadline-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := bench(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupTimes runs the workload's set-up wl.setups times and keeps the
// last fleet; it returns the median set-up time in seconds.
func setupTimes(wl workload, seed int64, proxy bool) (*fleet, float64, error) {
	var times []float64
	var f *fleet
	for i := 0; i < wl.setups; i++ {
		if f != nil {
			f.close()
		}
		start := time.Now()
		var err error
		if f, err = wl.setup(seed, proxy); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return f, median(times), nil
}

// timed runs one timed loop on f and returns it with its peak heap.
func timed(wl workload, r *run) (loopOut, float64) {
	runtime.GC()
	hw := watchHeap()
	lo := wl.loop(r)
	return lo, hw.peakMB()
}

func bench(wl workload, seed int64, seconds time.Duration, traced bool) (result, error) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%.0f trace=%t\n", wl.name, seed, seconds.Seconds(), traced)
	fmt.Printf("host: %s\n", hostStamp())

	f, setupS, err := setupTimes(wl, seed, traced)
	if err != nil {
		return result{}, err
	}
	// A traced run splits its time between an untraced loop, which it
	// reports next to the traced one as the tracing overhead, and the
	// traced loop.
	loop := seconds
	if traced {
		loop = max(seconds/2, time.Second)
	}
	lo, peak := timed(wl, &run{seed: seed, seconds: loop, f: f})
	f.close()
	e2e := endToEnd(lo, setupS)
	printLoop("untraced", lo, e2e, peak)
	res := tally(lo)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}

	// The traced run: the same inputs on a fresh fleet, every request
	// recorded and replayed through the layers, then the engine probes.
	if f, err = wl.setup(seed, true); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	rec := newRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tlo, tpeak := timed(wl, &run{seed: seed, seconds: loop, f: f, rec: rec, hops: new(atomic.Int64)})
	runtime.ReadMemStats(&after)
	f.close()
	te2e := endToEnd(tlo, setupS)
	printLoop("traced", tlo, te2e, tpeak)
	if err := wl.probes(context.Background(), rec, seed); err != nil {
		tlo.wrong = append(tlo.wrong, err)
	}
	tres := tally(tlo)

	layers := layerReport(rec.spans)
	layers["runtime.alloc_mb"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), "MB"}
	layers["runtime.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
	layers["runtime.peak_heap_mb"] = metric{tpeak, "MB"}
	for _, k := range []string{"throughput_rps", "latency_p50_ms", "latency_p95_ms"} {
		layers["trace."+k] = te2e[k]
	}
	layers["trace.overhead_p50_ratio"] = metric{te2e["latency_p50_ms"].Value / e2e["latency_p50_ms"].Value, "ratio"}
	fmt.Printf("tracing overhead: latency_p50 %.3f -> %.3f ms, throughput %.3f -> %.3f 1/s\n",
		e2e["latency_p50_ms"].Value, te2e["latency_p50_ms"].Value, e2e["throughput_rps"].Value, te2e["throughput_rps"].Value)
	selfTable(os.Stdout, rec.spans)
	counterTable(os.Stdout, rec.spans)
	printMetrics("per-layer", layers)
	path, err := rec.write(".bench_build/spans", fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))
	if err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(rec.spans), path)

	return result{
		Correct:   res.Correct && tres.Correct,
		Attempted: res.Attempted + tres.Attempted,
		Failed:    res.Failed + tres.Failed,
		Metrics:   layers,
	}, nil
}

// tally counts attempts, failures and wrong answers of a loop.
func tally(lo loopOut) result {
	res := result{Correct: len(lo.wrong) == 0, Attempted: len(lo.samples)}
	for _, s := range lo.samples {
		if s.failed {
			res.Failed++
		}
	}
	for i, err := range lo.wrong {
		if i == 5 {
			fmt.Printf("  ... %d more wrong answers\n", len(lo.wrong)-i)
			break
		}
		fmt.Printf("WRONG: %v\n", err)
	}
	return res
}

// printLoop prints a loop's end-to-end metrics, its peak heap and its
// answer classes. The peak heap is reported but not gated: on
// exact-cold it follows the A*/IDA* race and where collections fall,
// and swings by a fifth between runs of the same inputs.
func printLoop(label string, lo loopOut, e2e map[string]metric, peakMB float64) {
	var n int
	for _, s := range lo.samples {
		if s.measured && !s.failed {
			n++
		}
	}
	fmt.Printf("%s loop: %d requests in %.2f s, %d measured\n", label, len(lo.samples), lo.wall.Seconds(), n)
	printMetrics("end-to-end ("+label+")", e2e)
	c := classes(lo)
	fmt.Printf("  %-28s %14.4f %-6s\n", "peak_heap_mb", peakMB, "MB")
	fmt.Printf("  %-28s %14.4f %-6s\n", "solves_per_s", c.solvesPerS, "1/s")
	fmt.Printf("  %-28s %14.4f %-6s n=%d\n", "cold_p50_ms", c.coldP50, "ms", c.nCold)
	fmt.Printf("  %-28s %14.4f %-6s n=%d\n", "overshoot_p95_ms", c.overshootP95, "ms", c.nCold)
	fmt.Printf("  %-28s %14.4f %-6s n=%d\n", "gap_mean", c.gapMean, "ratio", c.nCold)
	fmt.Printf("  %-28s %14.4f %-6s n=%d\n", "hit_p95_ms", c.hitP95, "ms", c.nHit)
}

func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println(title)
	for _, k := range names {
		fmt.Printf("  %-28s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
