package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"rbpebble/internal/instcache"
	"rbpebble/internal/service"
)

// bodies returns every request body a short run of each workload sends
// for seed, in order.
func bodies(seed int64) [][]byte {
	var out [][]byte
	for p := 0; p < 2; p++ {
		for _, rq := range exactPass(seed, p) {
			out = append(out, rq.Body)
		}
	}
	for _, rq := range append(hitSetup(seed), mixSetup(seed)...) {
		out = append(out, rq.Body)
	}
	cp := newColdPlan(seed)
	for i := 0; i < 6; i++ {
		out = append(out, hitRequest(seed, i%2, i).Body, cp.request(i).Body, mixBatch(seed, i).Body)
	}
	return out
}

func TestSameSeedSameBodies(t *testing.T) {
	a, b := bodies(7), bodies(7)
	if len(a) != len(b) {
		t.Fatalf("%d bodies vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("body %d differs between two generations with one seed", i)
		}
	}
}

func TestSeedChangesLabelingsAndColdInstances(t *testing.T) {
	a, b := exactPass(1, 0), exactPass(2, 0)
	same := 0
	for i := range a {
		for j := range b {
			if a[i].Inst.Name == b[j].Inst.Name && bytes.Equal(a[i].Body, b[j].Body) {
				same++
			}
		}
	}
	if same > 0 {
		t.Errorf("%d exact-cold instances keep their labeling under another seed", same)
	}
	if bytes.Equal(hitRequest(1, 0, 0).Body, hitRequest(2, 0, 0).Body) {
		t.Error("hit-relabel request unchanged under another seed")
	}
	ca, cb := newColdPlan(1), newColdPlan(2)
	for i := 0; i < 4; i++ {
		if ra, rb := ca.request(i), cb.request(i); bytes.Equal(ra.Body, rb.Body) {
			t.Errorf("cold instance %d (%s) unchanged under another seed", i, ra.Inst.Name)
		}
	}
}

// TestColdInstancesDistinct: every cold request of a run must miss the
// cache, so no two instances of the stream may share a canonical key.
func TestColdInstancesDistinct(t *testing.T) {
	cp := newColdPlan(3)
	seen := map[string]int{}
	for i := 0; i < 60; i++ {
		k := keyOf(t, cp.request(i).Body)
		if j, ok := seen[k]; ok {
			t.Fatalf("cold requests %d and %d share a cache key", j, i)
		}
		seen[k] = i
	}
}

func keyOf(t *testing.T, body []byte) string {
	t.Helper()
	var sr service.SolveRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	p, err := service.BuildProblem(sr, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := instcache.Instance{G: p.G, Model: p.Model, R: p.R, Convention: p.Convention}.Key()
	return k
}

// TestSeedKeepsPoolsAndOptima: another seed relabels the pools but keeps
// every pool instance in its canonical class and every pinned optimum.
func TestSeedKeepsPoolsAndOptima(t *testing.T) {
	for _, pair := range [][2][]request{
		{exactPass(1, 0), exactPass(2, 0)},
		{hitSetup(1), hitSetup(2)},
		{mixSetup(1), mixSetup(2)},
	} {
		byName := map[string]request{}
		for _, rq := range pair[1] {
			byName[rq.Inst.Name] = rq
		}
		for _, ra := range pair[0] {
			rb, ok := byName[ra.Inst.Name]
			if !ok {
				t.Fatalf("%s missing under another seed", ra.Inst.Name)
			}
			if ra.Inst.Opt != rb.Inst.Opt {
				t.Errorf("%s: pinned optimum %d vs %d", ra.Inst.Name, ra.Inst.Opt, rb.Inst.Opt)
			}
			if keyOf(t, ra.Body) != keyOf(t, rb.Body) {
				t.Errorf("%s: canonical class changes with the seed", ra.Inst.Name)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 3 * ms, End: 6 * ms}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 5 * ms, End: 9 * ms}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 5 * time.Millisecond, 2: 3 * time.Millisecond, 3: 2 * time.Millisecond, 4: 4 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty %v, want 0", got)
	}
}
