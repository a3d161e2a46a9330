// Package cluster shards rbserve across hosts: a consistent-hash ring
// routes each solve to the replica that owns its route token (an
// isomorphism invariant of the instance, instcache.Instance.Route), so
// repeated and isomorphic submissions of the same instance land on the
// same node's cache and warm-start each other, while the rest of the
// fleet stays free for other instances. The package provides the ring
// (virtual nodes, rendezvous tie-break), a member health prober, and
// the HTTP routing proxy served by cmd/rbproxy.
package cluster

import (
	"sort"
	"strconv"
	"sync"
)

// defaultVirtualNodes is the per-member virtual-node count. 64 points
// per member keeps the expected load imbalance of a small cluster
// within a few percent while the ring stays tiny (sorted array of
// members*64 points).
const defaultVirtualNodes = 64

// point is one virtual node on the ring.
type point struct {
	h      uint64
	member string
}

// Ring is a consistent-hash ring over cluster members with virtual
// nodes and rendezvous (highest-random-weight) tie-breaking. Keys are
// route tokens (instcache.Instance.Route, or instcache.RouteOf of a
// cache key), so the ring inherits their isomorphism invariance:
// relabeled copies of a DAG route to the same member. The zero value
// is not usable; call NewRing.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	healthy map[string]bool
	points  []point // sorted by (h, rendezvous-stable member order)
}

// NewRing returns a ring with the given virtual-node count per member
// (<= 0 selects the default of 64) and the initial member set.
func NewRing(vnodes int, members ...string) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes, healthy: make(map[string]bool)}
	r.Add(members...)
	return r
}

// hashString is FNV-1a over s with a splitmix64 finalizer — stable
// across processes (no per-run seeding), which a routing layer needs:
// every proxy replica must agree on the owner of a key. The finalizer
// matters: bare FNV-1a barely diffuses the last bytes into the high
// bits on short inputs, which clusters each member's virtual nodes
// into one arc of the ring and collapses the rendezvous weights to a
// fixed member order.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// rendezvous scores member for key: the classic HRW weight used to
// break virtual-node hash collisions deterministically and
// member-symmetrically.
func rendezvous(member, key string) uint64 {
	return hashString(member + "\x00" + key)
}

// Add inserts members (idempotent). New members start healthy: the
// prober demotes them if they fail their first probe.
func (r *Ring) Add(members ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range members {
		if _, ok := r.healthy[m]; ok {
			continue
		}
		r.healthy[m] = true
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, point{h: hashString(m + "#" + strconv.Itoa(i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].member < r.points[j].member
	})
}

// Remove deletes a member and its virtual nodes.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.healthy[member]; !ok {
		return
	}
	delete(r.healthy, member)
	out := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			out = append(out, p)
		}
	}
	r.points = out
}

// SetHealthy marks a member up or down. Unknown members are ignored.
func (r *Ring) SetHealthy(member string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, known := r.healthy[member]; known {
		r.healthy[member] = ok
	}
}

// Healthy reports a member's last known health.
func (r *Ring) Healthy(member string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.healthy[member]
}

// Members returns all members sorted, with their health.
func (r *Ring) Members() map[string]bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]bool, len(r.healthy))
	for m, ok := range r.healthy {
		out[m] = ok
	}
	return out
}

// Owners returns up to n distinct members in routing preference order
// for key: clockwise from the key's ring position, healthy members
// first (an all-down ring still returns the unhealthy order, so the
// caller can attempt a last-resort forward). Virtual nodes whose
// hashes collide are ordered by rendezvous weight for THIS key, so the
// tie resolves differently — but deterministically and
// proxy-replica-consistently — per key instead of always favoring the
// lexicographically smaller member.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	kh := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= kh })

	var healthyOwners, downOwners []string
	seen := make(map[string]bool, len(r.healthy))
	i := start
	for len(seen) < len(r.healthy) {
		// Collect the run of equal-hash points and order it by
		// rendezvous weight before visiting.
		j := i
		run := []string{r.points[i%len(r.points)].member}
		for {
			j++
			p := r.points[j%len(r.points)]
			if p.h != r.points[i%len(r.points)].h || j-i >= len(r.points) {
				break
			}
			run = append(run, p.member)
		}
		if len(run) > 1 {
			sort.Slice(run, func(a, b int) bool {
				return rendezvous(run[a], key) > rendezvous(run[b], key)
			})
		}
		for _, m := range run {
			if seen[m] {
				continue
			}
			seen[m] = true
			if r.healthy[m] {
				healthyOwners = append(healthyOwners, m)
			} else {
				downOwners = append(downOwners, m)
			}
		}
		i = j
	}
	owners := append(healthyOwners, downOwners...)
	if len(owners) > n {
		owners = owners[:n]
	}
	return owners
}
