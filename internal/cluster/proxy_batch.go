package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rbpebble/internal/instcache"
	"rbpebble/internal/obs"
	"rbpebble/internal/service"
)

// TenantHeader names the request header that identifies a tenant for
// token-bucket admission at the proxy.
const TenantHeader = "X-Rbpebble-Tenant"

// admitTenant charges n solve items against the requesting tenant's
// token bucket. On rejection it writes the 429 (with a Retry-After
// derived from the bucket's refill rate) and returns false.
func (p *Proxy) admitTenant(w http.ResponseWriter, r *http.Request, n int) bool {
	ok, retry := p.quota.Take(r.Header.Get(TenantHeader), n)
	if ok {
		return true
	}
	p.m.quotaRejected.Add(1)
	secs := int(retry/time.Second) + 1
	if secs > 60 {
		secs = 60
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	httpError(w, http.StatusTooManyRequests, "tenant quota exhausted")
	return false
}

// subBatch is one node's share of a client batch: the items it owns
// plus the mapping from its local result indices back to positions in
// the original request.
type subBatch struct {
	items []service.SolveRequest
	idxs  []int // idxs[local] = original index
}

// handleSolveBatch splits a client batch by route token (RouteKey)
// across the ring, fans the per-node sub-batches out through the
// hardened comm layer, and reassembles per-item results in request
// order. The token is an isomorphism invariant, so splitting by it
// keeps the node-side in-batch dedup effective: every isomorphism
// class lands whole on the replica whose cache owns it.
func (p *Proxy) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	p.m.requests.Add(1)
	// Trace before any rejection so quota 429s and parse 400s carry
	// X-Rbpebble-Trace; every sub-batch forward reuses the one ID.
	ctx, _ := obs.StartRequest(w, r, p.recorder)
	var req service.BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, p.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		p.m.errors.Add(1)
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Items) == 0 {
		p.m.errors.Add(1)
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if !p.admitTenant(w, r, len(req.Items)) {
		return
	}
	p.m.batches.Add(1)
	p.m.batchItems.Add(uint64(len(req.Items)))

	// Route every item: route token -> first eligible ring owner.
	// Items the routing parse rejects get their per-item error here
	// (the node would reject them identically); they don't burn a
	// forward.
	out := make([]service.BatchItem, len(req.Items))
	keys := make([]string, len(req.Items))
	var keyWG sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i := range req.Items {
		keyWG.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer keyWG.Done()
			defer func() { <-sem }()
			key, err := RouteKey(req.Items[i], p.cfg.MaxNodes)
			if err != nil {
				out[i] = service.BatchItem{Index: i, Error: err.Error(), Status: http.StatusUnprocessableEntity}
				return
			}
			keys[i] = key
		}(i)
	}
	keyWG.Wait()

	if len(p.ring.Members()) == 0 {
		p.m.errors.Add(1)
		httpError(w, http.StatusServiceUnavailable, "no cluster members")
		return
	}

	// Fan out with ring-order failover: a sub-batch whose target fails
	// (transport error, 502, draining 503) is re-split among the
	// remaining members, up to three rounds — mirroring the single-solve
	// and cache-import failover discipline.
	pending := make([]int, 0, len(req.Items))
	for i := range req.Items {
		if keys[i] != "" {
			pending = append(pending, i)
		}
	}
	failed := map[string]bool{}
	solves := 0 // canonical-class solves the nodes reported across sub-batches
	for round := 0; round < 3 && len(pending) > 0; round++ {
		if round > 0 {
			p.m.failovers.Add(1)
		}
		groups := map[string]*subBatch{}
		var unroutable []int
		for _, i := range pending {
			target := p.batchTarget(keys[i], failed)
			if target == "" {
				unroutable = append(unroutable, i)
				continue
			}
			g := groups[target]
			if g == nil {
				g = &subBatch{}
				groups[target] = g
			}
			g.items = append(g.items, req.Items[i])
			g.idxs = append(g.idxs, i)
		}
		pending = unroutable
		var mu sync.Mutex
		var wg sync.WaitGroup
		for target, g := range groups {
			wg.Add(1)
			go func(target string, g *subBatch) {
				defer wg.Done()
				retry, nodeSolves := p.forwardSubBatch(ctx, target, g, req, out)
				mu.Lock()
				solves += nodeSolves
				if len(retry) > 0 {
					failed[target] = true
					pending = append(pending, retry...)
				}
				mu.Unlock()
			}(target, g)
		}
		wg.Wait()
	}
	for _, i := range pending {
		out[i] = service.BatchItem{Index: i, Error: "all cluster members failed", Status: http.StatusBadGateway}
	}

	// Reassemble in request order and recompute the cluster-level
	// summary (node-local summaries describe sub-batches; the client
	// sees the whole).
	sum := service.BatchSummary{Items: len(req.Items), Solves: solves}
	for i := range out {
		if out[i].Error != "" {
			sum.Errors++
			if out[i].Status == http.StatusTooManyRequests {
				sum.Shed++
			}
		} else {
			sum.OK++
			if res := out[i].Result; res != nil && (res.Shared || res.Cached) {
				sum.Deduped++
			}
		}
	}
	writeJSON(w, service.BatchResponse{Items: out, Summary: sum})
}

// forwardSubBatch posts one node's sub-batch and folds its per-item
// results back into the client-order slice. The returned indices must
// be retried on another member (the node is unreachable or going
// away); per-item errors from a healthy node are final. solves is the
// canonical-class solve count the node's summary reported, folded into
// the cluster-level summary.
func (p *Proxy) forwardSubBatch(ctx context.Context, target string, g *subBatch, req service.BatchRequest, out []service.BatchItem) (retry []int, solves int) {
	p.m.subBatches.Add(1)
	ctx, fsp := obs.StartSpan(ctx, "forward")
	fsp.SetAttr("member", target)
	fsp.SetAttr("items", strconv.Itoa(len(g.items)))
	defer fsp.End()
	body, err := json.Marshal(service.BatchRequest{
		Items:        g.items,
		DeadlineMS:   req.DeadlineMS,
		IncludeTrace: req.IncludeTrace,
	})
	if err != nil {
		for _, i := range g.idxs {
			out[i] = service.BatchItem{Index: i, Error: err.Error(), Status: http.StatusInternalServerError}
		}
		return nil, 0
	}
	resp, err := p.comm.Post(ctx, target, "/solve/batch", "application/json", body)
	if err != nil {
		p.ring.SetHealthy(target, false)
		return g.idxs, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusBadGateway ||
		(resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("X-Rbserve-Draining") == "1") {
		io.Copy(io.Discard, resp.Body)
		p.ring.SetHealthy(target, false)
		return g.idxs, 0
	}
	if resp.StatusCode != http.StatusOK {
		// A per-node refusal from a healthy node (whole-batch 429, size
		// limit): relay it per item without demoting — the items reached
		// a live node that chose to refuse them.
		msg := fmt.Sprintf("node %s refused sub-batch: status %d", target, resp.StatusCode)
		if b, rerr := io.ReadAll(io.LimitReader(resp.Body, 512)); rerr == nil && len(bytes.TrimSpace(b)) > 0 {
			msg = string(bytes.TrimSpace(b))
		}
		for _, i := range g.idxs {
			out[i] = service.BatchItem{Index: i, Error: msg, Status: resp.StatusCode}
		}
		return nil, 0
	}
	var br service.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		p.ring.SetHealthy(target, false)
		return g.idxs, 0
	}
	p.m.routed.Add(1)
	for _, item := range br.Items {
		if item.Index < 0 || item.Index >= len(g.idxs) {
			continue
		}
		orig := g.idxs[item.Index]
		item.Index = orig
		out[orig] = item
	}
	return nil, br.Summary.Solves
}

// batchTarget picks the first eligible ring owner for one batch item's
// route token: not demoted, not draining, not behind an open breaker,
// not already failed during this request's fan-out.
func (p *Proxy) batchTarget(key string, failed map[string]bool) string {
	for _, m := range p.ring.Owners(instcache.RouteOf(key), len(p.ring.Members())) {
		if failed[m] || !p.ring.Healthy(m) || p.membership.Draining(m) || p.comm.BreakerOpen(m) {
			continue
		}
		return m
	}
	return ""
}
