package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/cluster"
	"rbpebble/internal/dag"
	"rbpebble/internal/instcache"
	"rbpebble/internal/pebble"
	"rbpebble/internal/sched"
	"rbpebble/internal/service"
	"rbpebble/internal/solve"
)

// span is one timed call at a layer boundary. Spans of one request (or
// of one engine probe) share Req; Parent is the span that caused it
// (0 for a root).
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Req    string             `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

type openSpan struct {
	r *recorder
	s span
}

func (r *recorder) begin(name, req string, parent int64) *openSpan {
	return &openSpan{r: r, s: span{ID: r.ids.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.t0))}}
}

func (o *openSpan) set(k string, v float64) {
	if o.s.Attrs == nil {
		o.s.Attrs = make(map[string]float64)
	}
	o.s.Attrs[k] = v
}

func (o *openSpan) end() {
	o.s.End = int64(time.Since(o.r.t0))
	o.r.add(o.s)
}

// add records a span whose times were measured elsewhere.
func (r *recorder) add(s span) {
	if s.ID == 0 {
		s.ID = r.ids.Add(1)
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// at converts a wall-clock instant to the recorder's span clock.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// call records fn as a span.
func (r *recorder) call(name, req string, parent int64, fn func()) {
	sp := r.begin(name, req, parent)
	fn()
	sp.end()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, cur := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// write stores the spans as JSON lines under dir and returns the path.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// accountedLayers are the replayed calls that lie on a request's
// blocking path, one after another; dag.unmarshal is not among them
// because service.build_problem and cluster.route_key include it.
var accountedLayers = map[string]bool{
	"service.decode": true, "cluster.decode": true, "cluster.route_key": true,
	"service.build_problem": true, "instcache.key": true, "instcache.translate": true,
	"pebble.verify": true, "service.encode": true,
}

// replayItem calls, from the benchmark's own code, each layer function
// the serving path runs for one answered instance: parse, canonical
// key, translation of the canonical trace, replay-verify. Replays only
// time the calls: the bodies are generated here and the answers were
// already checked, so their errors are not consulted again.
func (r *recorder) replayItem(req string, parent int64, sr service.SolveRequest, resp *service.SolveResponse, rq request) {
	r.call("dag.unmarshal", req, parent, func() {
		var g dag.DAG
		json.Unmarshal(sr.DAG, &g)
	})
	var p solve.Problem
	r.call("service.build_problem", req, parent, func() { p, _ = service.BuildProblem(sr, 0) })
	var perm []dag.NodeID
	r.call("instcache.key", req, parent, func() {
		_, perm = instcache.Instance{G: p.G, Model: p.Model, R: p.R, Convention: p.Convention}.Key()
	})
	tr, err := traceOf(rq, resp)
	if err != nil || p.G == nil {
		return // the check already counted this answer as wrong
	}
	canon := instcache.ToCanonical(tr.Moves, perm)
	r.call("instcache.translate", req, parent, func() { tr.Moves = instcache.FromCanonical(canon, perm) })
	sp := r.begin("pebble.verify", req, parent)
	res, _ := (&pebble.Trace{Model: p.Model, R: p.R, Convention: p.Convention, Moves: tr.Moves}).Run(p.G)
	sp.set("moves", float64(len(tr.Moves)))
	sp.set("steps", float64(res.Steps))
	sp.end()
}

// replaySolve replays one POST /solve answer. The routing proxy's own
// decode and key are replayed for every request, so their cost is
// known on every workload; they count toward the request's blocking
// path only when it went through the proxy.
func (r *recorder) replaySolve(req string, rq request, resp *service.SolveResponse, proxied bool) {
	root := r.begin("replay", req, 0)
	if proxied {
		root.set("proxied", 1)
	}
	var sr service.SolveRequest
	r.call("cluster.decode", req, root.s.ID, func() { json.Unmarshal(rq.Body, &sr) })
	r.call("cluster.route_key", req, root.s.ID, func() { cluster.RouteKey(sr, 0) })
	r.call("service.decode", req, root.s.ID, func() { json.Unmarshal(rq.Body, &sr) })
	r.replayItem(req, root.s.ID, sr, resp, rq)
	r.call("service.encode", req, root.s.ID, func() { json.Marshal(resp) })
	root.end()
}

// replayBatch replays one POST /solve/batch answer.
func (r *recorder) replayBatch(req string, b batch, resp *service.BatchResponse) {
	root := r.begin("replay", req, 0)
	var br service.BatchRequest
	r.call("service.decode", req, root.s.ID, func() { json.Unmarshal(b.Body, &br) })
	for i, it := range resp.Items {
		if it.Result == nil || i >= len(br.Items) {
			continue
		}
		sr := br.Items[i]
		sr.DeadlineMS = br.DeadlineMS
		r.replayItem(req, root.s.ID, sr, it.Result, b.Items[i])
	}
	r.call("service.encode", req, root.s.ID, func() { json.Marshal(resp) })
	root.end()
}

// Engine probe limits for instances no exact engine can finish.
const (
	probeStates = 1000 // A* expansions
	probeVisits = 2000 // IDA* visits
)

// probe runs the solver layers directly on one instance: root bound,
// the anytime heuristics phase, one schedule execution, the two exact
// engines and the anytime orchestrator at each budget (0 = no budget).
// exhaustive lets A* run to its default state limit (exact-cold).
func (r *recorder) probe(ctx context.Context, in instance, budgets []time.Duration, exhaustive bool) error {
	req := "probe:" + in.Name
	m := modelOf(in)
	rr := in.R
	if rr == 0 {
		rr = pebble.MinFeasibleR(in.G)
	}
	p := solve.Problem{G: in.G, Model: m, R: rr}
	root := r.begin("probe", req, 0)
	defer root.end()
	id := root.s.ID

	sp := r.begin("solve.root_bound", req, id)
	lb, err := solve.RootLowerBound(p, solve.HeuristicAuto)
	sp.set("lower", float64(lb))
	sp.end()
	if err != nil {
		return fmt.Errorf("probe %s: %w", in.Name, err)
	}

	// The anytime heuristics phase, call by call.
	hsp := r.begin("anytime.heuristics", req, id)
	best := int64(-1)
	keep := func(sol solve.Solution, err error) {
		if err == nil {
			if c := sol.Cost().Scaled(m); best < 0 || c < best {
				best = c
			}
		}
	}
	r.call("solve.topo_belady", req, hsp.s.ID, func() { keep(solve.TopoBelady(p)) })
	for _, rule := range solve.AllGreedyRules() {
		r.call("solve.greedy", req, hsp.s.ID, func() { keep(solve.Greedy(p, rule)) })
	}
	r.call("solve.random_orders", req, hsp.s.ID, func() {
		keep(solve.RandomOrders(p, solve.RandomOrdersOptions{Samples: 8, Seed: 1, InitialBound: best}))
	})
	hsp.set("upper", float64(best))
	hsp.end()

	order, err := in.G.TopoOrder()
	if err != nil {
		return fmt.Errorf("probe %s: %w", in.Name, err)
	}
	sp = r.begin("sched.execute", req, id)
	_, res, err := sched.Execute(in.G, m, rr, pebble.Convention{}, order, sched.Options{Policy: sched.Belady})
	sp.set("cost", float64(res.Cost.Scaled(m)))
	sp.end()
	if err != nil {
		return fmt.Errorf("probe %s: schedule: %w", in.Name, err)
	}

	var st solve.ExactStats
	opts := solve.ExactOptions{Stats: &st, MaxStates: probeStates}
	if exhaustive {
		opts.MaxStates = 0
	}
	sp = r.begin("solve.astar", req, id)
	sol, aerr := solve.Exact(p, opts)
	sp.set("expanded", float64(st.Expanded))
	sp.set("distinct", float64(st.Distinct))
	sp.set("table_bytes", float64(st.TableBytes))
	if aerr == nil {
		sp.set("optimum", float64(sol.Cost().Scaled(m)))
		sp.set("moves", float64(len(sol.Trace.Moves)))
	}
	sp.end()
	if aerr == nil && in.Opt > 0 && sol.Cost().Scaled(m) != in.Opt {
		return fmt.Errorf("%w: probe %s: A* optimum %d, pinned %d", errWrong, in.Name, sol.Cost().Scaled(m), in.Opt)
	}

	if m.Kind == pebble.Oneshot || m.Kind == pebble.NoDel {
		var ds solve.ExactDFSStats
		sp = r.begin("solve.ida", req, id)
		solve.ExactDFS(p, solve.ExactDFSOptions{Stats: &ds, MaxVisits: probeVisits})
		sp.set("visits", float64(ds.Visits))
		sp.set("table_bytes", float64(ds.TableBytes))
		sp.end()
	}

	for _, b := range budgets {
		sp = r.begin("anytime.solve", req, id)
		res, err := anytime.Solve(ctx, p, anytime.Options{Budget: b})
		sp.set("budget_ms", ms(b))
		sp.set("elapsed_ms", ms(res.Elapsed))
		sp.set("lower", float64(res.LowerScaled))
		sp.set("upper", float64(res.UpperScaled))
		sp.set("root", float64(lb))
		sp.set("heuristic", float64(best))
		if in.Opt > 0 {
			sp.set("ref", float64(in.Opt))
		} else {
			sp.set("ref", float64(res.UpperScaled))
		}
		if res.Optimal {
			sp.set("optimal", 1)
		}
		sp.end()
		if err != nil {
			return fmt.Errorf("probe %s: anytime: %w", in.Name, err)
		}
		if in.Opt > 0 && (res.LowerScaled > in.Opt || res.UpperScaled < in.Opt) {
			return fmt.Errorf("%w: probe %s: anytime interval [%d, %d] misses %d", errWrong, in.Name, res.LowerScaled, res.UpperScaled, in.Opt)
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerReport derives the per-layer metrics from the recorded spans.
func layerReport(spans []span) map[string]metric {
	self := selfTimes(spans)
	byName := make(map[string][]span)
	byReq := make(map[string][]span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	selfMS := func(name string) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, ms(self[s.ID]))
		}
		return xs
	}
	durMS := func(name string) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, ms(s.dur()))
		}
		return xs
	}
	attrs := func(name, key string) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			if v, ok := s.Attrs[key]; ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	sum := func(xs []float64) (t float64) {
		for _, x := range xs {
			t += x
		}
		return t
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }

	// Request-path layers, from the replayed calls.
	put("service.build_problem_ms", "ms", median(selfMS("service.build_problem")))
	put("service.encode_ms", "ms", median(selfMS("service.encode")))
	put("dag.unmarshal_ms", "ms", median(selfMS("dag.unmarshal")))
	put("cluster.route_key_ms", "ms", median(selfMS("cluster.route_key")))
	put("instcache.key_ms", "ms", median(selfMS("instcache.key")))
	put("instcache.translate_us", "us", 1000*median(selfMS("instcache.translate")))
	put("pebble.verify_ms", "ms", median(selfMS("pebble.verify")))
	put("pebble.moves", "count", median(attrs("pebble.verify", "moves")))

	// From the measured requests themselves.
	var httpMS, keyShare, accounted []float64
	var items, cached, shed, dedup, batchItems float64
	for _, s := range byName["request"] {
		items += s.Attrs["items"]
		shed += s.Attrs["shed"]
		e, answered := s.Attrs["elapsed_ms"]
		if !answered {
			continue // refused: no answer to replay
		}
		cached += s.Attrs["cached"]
		if s.Attrs["batch"] == 1 {
			dedup += s.Attrs["deduped"]
			batchItems += s.Attrs["items"]
		}
		httpMS = append(httpMS, ms(s.dur())-e)
		proxied := false
		for _, c := range byReq[s.Req] {
			proxied = proxied || (c.Name == "replay" && c.Attrs["proxied"] == 1)
		}
		var keyT, acc float64
		for _, c := range byReq[s.Req] {
			if strings.HasPrefix(c.Name, "cluster.") && !proxied {
				continue
			}
			if c.Name == "instcache.key" || c.Name == "cluster.route_key" {
				keyT += ms(self[c.ID])
			}
			if accountedLayers[c.Name] {
				acc += ms(self[c.ID])
			}
		}
		if s.dur() > 0 {
			keyShare = append(keyShare, keyT/ms(s.dur()))
			accounted = append(accounted, acc/ms(s.dur()))
		}
	}
	put("service.http_ms", "ms", median(httpMS))
	put("service.shed_ratio", "ratio", ratio(shed, items))
	put("instcache.key_share", "ratio", median(keyShare))
	put("instcache.hit_ratio", "ratio", ratio(cached, items))
	put("instcache.dedup_ratio", "ratio", ratio(dedup, batchItems))
	put("trace.accounted_share", "ratio", median(accounted))

	// Proxy hop: proxy latency minus direct-to-owner latency, same body.
	var hops []float64
	for _, ss := range byReq {
		var via, direct float64
		for _, s := range ss {
			switch s.Name {
			case "cluster.via_proxy":
				via = ms(s.dur())
			case "cluster.direct":
				direct = ms(s.dur())
			}
		}
		if via > 0 && direct > 0 {
			hops = append(hops, via-direct)
		}
	}
	put("cluster.hop_ms", "ms", median(hops))

	// Solver layers, from the engine probes.
	// anytime.solve_ms: solves without a budget where the workload has
	// them (exact-cold), else the deadline-limited ones.
	var solveMS, budgetMS []float64
	for _, s := range byName["anytime.solve"] {
		if s.Attrs["budget_ms"] == 0 {
			solveMS = append(solveMS, ms(s.dur()))
		} else {
			budgetMS = append(budgetMS, ms(s.dur()))
		}
	}
	if len(solveMS) == 0 {
		solveMS = budgetMS
	}
	put("anytime.solve_ms", "ms", median(solveMS))
	put("anytime.heuristics_ms", "ms", median(durMS("anytime.heuristics")))
	var over []float64
	var limited, nonzero float64
	for _, s := range byName["anytime.solve"] {
		if s.Attrs["budget_ms"] > 0 && s.Attrs["optimal"] == 0 {
			limited++
			over = append(over, s.Attrs["elapsed_ms"]-s.Attrs["budget_ms"])
			if s.Attrs["lower"] > 0 {
				nonzero++
			}
		}
	}
	put("anytime.overshoot_ms", "ms", quantile(over, 0.95))
	put("anytime.lower_nonzero_ratio", "ratio", ratio(nonzero, limited))
	// The reference is the pinned optimum where one is known, else the
	// probe's anytime incumbent.
	var rootRatio, upperRatio []float64
	for _, s := range byName["anytime.solve"] {
		if ref := s.Attrs["ref"]; ref > 0 {
			rootRatio = append(rootRatio, s.Attrs["root"]/ref)
			upperRatio = append(upperRatio, s.Attrs["heuristic"]/ref)
		}
	}
	put("solve.root_bound_ms", "ms", median(selfMS("solve.root_bound")))
	put("solve.root_lower_ratio", "ratio", mean(rootRatio))
	put("solve.upper_ratio", "ratio", mean(upperRatio))
	put("sched.execute_ms", "ms", median(selfMS("sched.execute")))
	astarMS := selfMS("solve.astar")
	expanded := sum(attrs("solve.astar", "expanded"))
	put("solve.astar_ms", "ms", median(astarMS))
	put("solve.expanded", "count", expanded)
	put("solve.distinct", "count", sum(attrs("solve.astar", "distinct")))
	put("solve.peak_table_bytes", "bytes", quantile(attrs("solve.astar", "table_bytes"), 1))
	put("solve.expansions_per_s", "1/s", ratio(expanded, sum(astarMS)/1000))
	put("solve.ida_ms", "ms", median(selfMS("solve.ida")))
	put("solve.ida_visits", "count", sum(attrs("solve.ida", "visits")))
	return out
}

// counterTable prints the deterministic work counters of every probed
// instance: equal code gives equal numbers on any host.
func counterTable(w io.Writer, spans []span) {
	type row struct {
		name                      string
		expanded, distinct, bytes float64
		moves, visits             float64
	}
	rows := map[string]*row{}
	var names []string
	for _, s := range spans {
		if !strings.HasPrefix(s.Req, "probe:") {
			continue
		}
		name := strings.TrimPrefix(s.Req, "probe:")
		rw := rows[name]
		if rw == nil {
			rw = &row{name: name}
			rows[name] = rw
			names = append(names, name)
		}
		switch s.Name {
		case "solve.astar":
			rw.expanded, rw.distinct, rw.bytes, rw.moves = s.Attrs["expanded"], s.Attrs["distinct"], s.Attrs["table_bytes"], s.Attrs["moves"]
		case "solve.ida":
			rw.visits = s.Attrs["visits"]
		}
	}
	fmt.Fprintf(w, "work counters (generator labeling; A* moves 0 = stopped at its state limit)\n")
	fmt.Fprintf(w, "  %-28s %12s %12s %16s %8s %12s\n", "instance", "expanded", "distinct", "peak_table_bytes", "moves", "ida_visits")
	for _, n := range names {
		rw := rows[n]
		fmt.Fprintf(w, "  %-28s %12.0f %12.0f %16.0f %8.0f %12.0f\n", rw.name, rw.expanded, rw.distinct, rw.bytes, rw.moves, rw.visits)
	}
}

// selfTable prints every span name's count and total self time.
func selfTable(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type agg struct {
		n     int
		total time.Duration
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += self[s.ID]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].total > by[names[j]].total })
	fmt.Fprintf(w, "span self times\n  %-24s %8s %12s %12s\n", "span", "count", "total_ms", "mean_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "  %-24s %8d %12.3f %12.4f\n", n, a.n, ms(a.total), ms(a.total)/float64(a.n))
	}
}
