package instcache

import (
	"encoding/binary"
	"encoding/hex"
	"strings"

	"rbpebble/internal/dag"
)

// routeRounds is the number of hashed refinement rounds Route runs
// after the degree colouring. Three rounds separate the serving
// families (pyramids, grids, FFTs, stencils, layered graphs) by size
// and shape; a class the invariant fails to separate from another
// only shares a ring owner with it.
const routeRounds = 3

// routePrefix opens every route token. It is not a hex digit, so a
// key written before keys carried a route field (which opens with the
// hex canonical digest) never passes for one.
const routePrefix = "wl"

// routeLen is the length of a route token: the prefix and 16 hex
// digits.
const routeLen = len(routePrefix) + 16

// Route returns the instance's route token: a hash of a few rounds of
// colour refinement (1-WL) over the DAG, folded with the node and edge
// counts and every cost parameter. It is an isomorphism invariant —
// relabeled copies of an instance share it — so a cluster that picks
// ring owners by it sends every copy to one node, and only that node
// runs the canonical search (Key). Unlike the canonical key it does
// not identify the class: two classes may share a token, which only
// puts them on the same node.
//
// Colours are 64-bit hashes. Each round recolours a node by mixing its
// own colour with the sum of its predecessors' colours, then with the
// sum of its successors' (sums are commutative, so the numbering does
// not matter), so the cost is O(routeRounds·(n+m)) with no sorting
// and no search. The hash is fixed (no per-process seed, no map
// iteration): a proxy and the nodes behind it compute the token
// separately and must agree. Labels are ignored, as in Canonical.
func (in Instance) Route() string {
	g := in.G
	n := g.N()
	buf := make([]uint64, 2*n)
	cur, next := buf[:n], buf[n:]
	for v := range n {
		id := dag.NodeID(v)
		cur[v] = mix64(uint64(g.InDegree(id))<<32 | uint64(g.OutDegree(id)))
	}
	for range routeRounds {
		for v := range n {
			var preds, succs uint64
			for _, u := range g.Preds(dag.NodeID(v)) {
				preds += cur[u]
			}
			for _, u := range g.Succs(dag.NodeID(v)) {
				succs += cur[u]
			}
			next[v] = mix64(mix64(cur[v]^preds) + succs)
		}
		cur, next = next, cur
	}
	var colours uint64
	for _, c := range cur {
		colours += c
	}
	h := mix64(uint64(n))
	for _, x := range []uint64{
		colours, uint64(g.M()),
		uint64(in.Model.EpsDenom), uint64(in.R),
		boolBit(in.Convention.SourcesStartBlue) | boolBit(in.Convention.SinksMustBeBlue)<<1,
	} {
		h = mix64(h ^ x)
	}
	for _, b := range []byte(in.Model.Kind.String()) {
		h = mix64(h ^ uint64(b))
	}
	var raw [8]byte
	var tok [routeLen]byte
	binary.BigEndian.PutUint64(raw[:], h)
	copy(tok[:], routePrefix)
	hex.Encode(tok[len(routePrefix):], raw[:])
	return string(tok[:])
}

// RouteOf returns the route token a cache key leads with (see Key).
// A key without one — an export of an older build, or an opaque test
// key — is returned whole, so it still maps to one ring owner.
func RouteOf(key string) string {
	if len(key) > routeLen && key[routeLen] == '|' && strings.HasPrefix(key, routePrefix) {
		return key[:routeLen]
	}
	return key
}

// mix64 is the splitmix64 step: an odd-constant offset, then the
// finalizer, so even 0 maps to a well-spread word.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
