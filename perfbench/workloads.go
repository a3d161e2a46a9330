package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rbpebble/internal/anytime"
	"rbpebble/internal/service"
)

// sample is one completed request.
type sample struct {
	lat      time.Duration
	measured bool // counts toward throughput_rps and latency_*
	cold     bool // answered by a solve rather than the cache
	deadline int  // ms
	cached   int
	optimal  int
	failed   bool
	gap      float64 // mean certified relative gap of the answers
}

// loopOut is what one timed loop produced.
type loopOut struct {
	samples []sample
	wall    time.Duration
	wrong   []error
}

func (lo *loopOut) add(s sample, err error) {
	lo.samples = append(lo.samples, s)
	if errors.Is(err, errWrong) {
		lo.wrong = append(lo.wrong, err)
	}
}

// run is one workload run: its fleet and, when traced, its recorder.
type run struct {
	seed    int64
	seconds time.Duration
	f       *fleet
	rec     *recorder     // nil = untraced
	hops    *atomic.Int64 // traced requests so far; every hopEvery-th also measures the proxy hop
}

// hopEvery spaces the proxy-hop measurements of a traced run: each one
// sends two extra requests.
const hopEvery = 4

func (r *run) hopDue() bool { return r.hops.Add(1)%hopEvery == 1 }

// workload is one traffic mix.
type workload struct {
	name   string
	setups int // set-ups per run; setup_s is their median
	setup  func(seed int64, proxy bool) (*fleet, error)
	loop   func(r *run) loopOut
	probes func(ctx context.Context, r *recorder, seed int64) error
}

var workloads = []workload{
	{name: "exact-cold", setups: 9, setup: setupExactCold, loop: loopExactCold, probes: probeExactCold},
	{name: "hit-relabel", setups: 3, setup: setupHitRelabel, loop: loopHitRelabel, probes: probeHitRelabel},
	{name: "deadline-mix", setups: 3, setup: setupDeadlineMix, loop: loopDeadlineMix, probes: probeDeadlineMix},
}

// solveOne sends one POST /solve, checks the answer and, when traced,
// records it and replays it through the layers. want checks
// workload-specific expectations on a correct answer.
func (r *run) solveOne(cl *client, url string, rq request, reqID string, proxied bool, want func(*service.SolveResponse) error) (sample, error) {
	s := sample{deadline: rq.Deadline}
	rp, err := cl.post(url+"/solve", rq.Body)
	s.lat = rp.lat
	var resp *service.SolveResponse
	if err == nil {
		resp, err = decodeSolve(rp.status, rp.body)
	}
	var lower, upper int64
	if err == nil {
		lower, upper, err = checkAnswer(rq, resp)
	}
	if err == nil {
		err = want(resp)
	}
	if err != nil {
		s.failed = true
		if r.rec != nil && rp.status == http.StatusTooManyRequests {
			r.recordShed(reqID, rp, 1, 1)
		}
		return s, err
	}
	s.cold = !resp.Cached
	s.gap = anytime.Gap(upper, lower)
	if resp.Cached {
		s.cached = 1
	}
	if resp.Optimal {
		s.optimal = 1
	}
	if r.rec != nil {
		attrs := map[string]float64{"items": 1, "cached": float64(s.cached), "elapsed_ms": resp.ElapsedMS, "deadline_ms": float64(rq.Deadline)}
		r.rec.add(span{Req: reqID, Name: "request", Start: r.rec.at(rp.start), End: r.rec.at(rp.start.Add(rp.lat)), Attrs: attrs})
		r.rec.replaySolve(reqID, rq, resp, proxied)
		if r.hopDue() {
			r.hop(cl, reqID, rq.Body)
		}
	}
	return s, nil
}

// hop measures the proxy hop for one body the fleet has already
// answered: the same request through the proxy and straight to the
// node the proxy routed it to.
func (r *run) hop(cl *client, reqID string, body []byte) {
	via, err := cl.post(r.f.proxyURL()+"/solve", body)
	if err != nil || via.status != http.StatusOK || via.node == "" {
		return
	}
	direct, err := cl.post("http://"+via.node+"/solve", body)
	if err != nil || direct.status != http.StatusOK {
		return
	}
	r.rec.add(span{Req: reqID, Name: "cluster.via_proxy", Start: r.rec.at(via.start), End: r.rec.at(via.start.Add(via.lat))})
	r.rec.add(span{Req: reqID, Name: "cluster.direct", Start: r.rec.at(direct.start), End: r.rec.at(direct.start.Add(direct.lat))})
}

// closedLoop runs one goroutine per client, each sending its next
// request only after the previous one completed, until the run's time
// is up. next returns the sample of client c's request i.
func (r *run) closedLoop(clients int, next func(cl *client, c, i int) (sample, error)) loopOut {
	var mu sync.Mutex
	var out loopOut
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			for i := 0; time.Since(start) < r.seconds; i++ {
				s, err := next(cl, c, i)
				mu.Lock()
				out.add(s, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// exact-cold: one client, sequential sync solves of the pinned corpus,
// each pass on a fresh node so that every request is a cache miss.

// setupExactCold starts the node and lets one solve of an instance
// outside the corpus finish the server's lazy first-request work.
func setupExactCold(seed int64, proxy bool) (*fleet, error) {
	f, err := newFleet(1, proxy)
	if err != nil {
		return nil, err
	}
	if err := warmUp(f.nodeURL(0)+"/solve", []request{exactWarmUp()}, 1); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

const minPasses = 3

func loopExactCold(r *run) loopOut {
	var out loopOut
	cl := newClient()
	defer cl.close()
	want := func(resp *service.SolveResponse) error {
		if resp.Cached || !resp.Optimal {
			return fmt.Errorf("%w: exact-cold answer cached=%t optimal=%t", errWrong, resp.Cached, resp.Optimal)
		}
		return nil
	}
	// Whole passes only, and at least minPasses of them: the corpus
	// then weighs the same in every run, and latency_p95_ms always
	// falls among the fft(3) solves rather than between them and the
	// next slowest instance.
	f := r.f
	for pass := 0; pass < minPasses || out.wall < r.seconds; pass++ {
		if pass > 0 {
			var err error
			if f, err = setupExactCold(r.seed, r.f.proxy != nil); err != nil {
				out.add(sample{failed: true}, err)
				return out
			}
		}
		pr := *r
		pr.f = f
		reqs := exactPass(r.seed, pass)
		start := time.Now()
		for i, rq := range reqs {
			s, err := pr.solveOne(cl, f.nodeURL(0), rq, fmt.Sprintf("p%d-%d", pass, i), false, want)
			s.measured = true
			out.add(s, err)
		}
		out.wall += time.Since(start)
		if pass > 0 {
			f.close()
		}
	}
	return out
}

func probeExactCold(ctx context.Context, rec *recorder, seed int64) error {
	for _, in := range exactCorpus() {
		if err := rec.probe(ctx, in, []time.Duration{0, 50 * time.Millisecond}, true); err != nil {
			return err
		}
	}
	return nil
}

// hit-relabel: two clients through the proxy to two nodes; every
// request is a relabeled pool instance the set-up already solved at a
// higher budget tier, so every answer comes from the cache.

func setupHitRelabel(seed int64, proxy bool) (*fleet, error) {
	f, err := newFleet(2, true)
	if err != nil {
		return nil, err
	}
	if err := warmUp(f.proxyURL()+"/solve", hitSetup(seed), 2); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func loopHitRelabel(r *run) loopOut {
	want := func(resp *service.SolveResponse) error {
		if !resp.Cached {
			return fmt.Errorf("%w: hit-relabel answer not served from the cache", errWrong)
		}
		return nil
	}
	return r.closedLoop(2, func(cl *client, c, i int) (sample, error) {
		s, err := r.solveOne(cl, r.f.proxyURL(), hitRequest(r.seed, c, i), fmt.Sprintf("c%d-%d", c, i), true, want)
		s.measured = true
		return s, err
	})
}

func probeHitRelabel(ctx context.Context, rec *recorder, seed int64) error {
	for _, in := range hitPool() {
		if err := rec.probe(ctx, in, []time.Duration{hitSetupMS * time.Millisecond}, false); err != nil {
			return err
		}
	}
	return nil
}

// deadline-mix: one node; a cold client writes distinct
// deadline-limited solves into the cache while a hit client reads
// batches of relabeled pre-solved instances from it.

func setupDeadlineMix(seed int64, proxy bool) (*fleet, error) {
	f, err := newFleet(1, proxy)
	if err != nil {
		return nil, err
	}
	if err := warmUp(f.nodeURL(0)+"/solve", mixSetup(seed), 1); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func loopDeadlineMix(r *run) loopOut {
	cp := newColdPlan(r.seed)
	wantCold := func(resp *service.SolveResponse) error {
		if resp.Cached {
			return fmt.Errorf("%w: deadline-mix cold answer served from the cache", errWrong)
		}
		return nil
	}
	return r.closedLoop(2, func(cl *client, c, i int) (sample, error) {
		if c == 0 {
			return r.solveOne(cl, r.f.nodeURL(0), cp.request(i), "cold-"+strconv.Itoa(i), false, wantCold)
		}
		s, err := r.batchOne(cl, mixBatch(r.seed, i), "hit-"+strconv.Itoa(i))
		s.measured = true
		return s, err
	})
}

// batchOne sends one POST /solve/batch of pre-solved instances and
// checks every item: served from the cache, proven optimal, and equal
// to its pinned optimum.
func (r *run) batchOne(cl *client, b batch, reqID string) (sample, error) {
	s := sample{deadline: b.Deadline}
	rp, err := cl.post(r.f.nodeURL(0)+"/solve/batch", b.Body)
	s.lat = rp.lat
	if err == nil && rp.status != http.StatusOK {
		err = fmt.Errorf("batch status %d", rp.status)
	}
	var resp service.BatchResponse
	if err == nil {
		if jerr := json.Unmarshal(rp.body, &resp); jerr != nil || len(resp.Items) != len(b.Items) {
			err = fmt.Errorf("%w: undecodable batch response (%v)", errWrong, jerr)
		}
	}
	shed := 0
	if rp.status == http.StatusTooManyRequests {
		shed = len(b.Items) // every lane refused the batch
	}
	var gaps []float64
	for i := 0; err == nil && i < len(resp.Items); i++ {
		it := resp.Items[i]
		switch {
		case it.Status == http.StatusTooManyRequests:
			shed++
			continue
		case it.Error != "" || it.Result == nil || it.Index != i:
			err = fmt.Errorf("batch item %d: status %d %s", i, it.Status, it.Error)
			continue
		}
		var lower, upper int64
		if lower, upper, err = checkAnswer(b.Items[i], it.Result); err == nil && !(it.Result.Cached && it.Result.Optimal) {
			err = fmt.Errorf("%w: batch item %d cached=%t optimal=%t", errWrong, i, it.Result.Cached, it.Result.Optimal)
		}
		gaps = append(gaps, anytime.Gap(upper, lower))
		s.cached += b2i(it.Result.Cached)
		s.optimal += b2i(it.Result.Optimal)
	}
	if err == nil && shed > 0 {
		err = fmt.Errorf("batch: %d items shed", shed)
	}
	if err != nil {
		s.failed = true
		if r.rec != nil && shed > 0 {
			r.recordShed(reqID, rp, len(b.Items), shed)
		}
		return s, err
	}
	s.gap = mean(gaps)
	if r.rec != nil {
		attrs := map[string]float64{"items": float64(len(b.Items)), "cached": float64(s.cached), "shed": float64(shed),
			"batch": 1, "deduped": float64(resp.Summary.Deduped), "elapsed_ms": resp.Summary.ElapsedMS, "deadline_ms": float64(b.Deadline)}
		r.rec.add(span{Req: reqID, Name: "request", Start: r.rec.at(rp.start), End: r.rec.at(rp.start.Add(rp.lat)), Attrs: attrs})
		r.rec.replayBatch(reqID, b, &resp)
		if r.hopDue() {
			first := b.Items[0]
			r.hop(cl, reqID, newRequest(first.Inst, first.G, b.Deadline).Body)
		}
	}
	return s, nil
}

// recordShed records a request of items items of which admission
// control refused shed, for service.shed_ratio.
func (r *run) recordShed(reqID string, rp reply, items, shed int) {
	r.rec.add(span{Req: reqID, Name: "request", Start: r.rec.at(rp.start), End: r.rec.at(rp.start.Add(rp.lat)),
		Attrs: map[string]float64{"items": float64(items), "shed": float64(shed)}})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func probeDeadlineMix(ctx context.Context, rec *recorder, seed int64) error {
	cp := newColdPlan(seed)
	for i := 0; i < 8; i++ {
		rq := cp.request(i)
		if err := rec.probe(ctx, rq.Inst, []time.Duration{time.Duration(rq.Deadline) * time.Millisecond}, false); err != nil {
			return err
		}
	}
	return nil
}

// endToEnd derives the end-to-end metrics of a loop.
func endToEnd(lo loopOut, setupS float64) map[string]metric {
	var lat []float64
	for _, s := range lo.samples {
		if s.measured && !s.failed {
			lat = append(lat, ms(s.lat))
		}
	}
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"throughput_rps": {float64(len(lat)) / lo.wall.Seconds(), "1/s"},
		"latency_p50_ms": {quantile(lat, 0.5), "ms"},
		"latency_p95_ms": {quantile(lat, 0.95), "ms"},
	}
}

// classReport summarizes the loop by answer class: solves per second
// (answers carrying a proven optimum), cold answers (computed by a
// solve: latency, overshoot past the deadline, certified gap) and
// cache hits.
type classReport struct {
	solvesPerS                     float64
	coldP50, overshootP95, gapMean float64
	hitP95                         float64
	nCold, nHit                    int
}

func classes(lo loopOut) classReport {
	var cold, over, gap, hit []float64
	var optimal int
	for _, s := range lo.samples {
		if s.failed {
			continue
		}
		optimal += s.optimal
		if s.cold {
			cold = append(cold, ms(s.lat))
			over = append(over, ms(s.lat)-float64(s.deadline))
			gap = append(gap, s.gap)
		} else {
			hit = append(hit, ms(s.lat))
		}
	}
	return classReport{
		solvesPerS: float64(optimal) / lo.wall.Seconds(),
		coldP50:    quantile(cold, 0.5), overshootP95: quantile(over, 0.95), gapMean: mean(gap),
		hitP95: quantile(hit, 0.95), nCold: len(cold), nHit: len(hit),
	}
}
