package instcache_test

import (
	"encoding/json"
	"testing"

	"rbpebble/internal/cluster"
	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/instcache"
	"rbpebble/internal/service"
)

// TestRouteOfKey: a cache key leads with its instance's route token,
// and the routing proxy computes the same token from the request, so a
// proxy and the nodes behind it agree on every key's ring owner.
func TestRouteOfKey(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *dag.DAG
		req  service.SolveRequest
	}{
		{"pyramid(6) oneshot", daggen.Pyramid(6), service.SolveRequest{Model: "oneshot", R: 4}},
		{"fft(3) base", daggen.FFT(3), service.SolveRequest{Model: "base", R: 3}},
		{"grid(25,25) compcost", daggen.Grid(25, 25), service.SolveRequest{Model: "compcost", EpsDenom: 50, R: 3, SinksMustBeBlue: true}},
		{"stencil1D(6,4) default R", daggen.Stencil1D(6, 4), service.SolveRequest{SourcesStartBlue: true}},
	} {
		body, err := json.Marshal(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		tc.req.DAG = body
		p, err := service.BuildProblem(tc.req, 0)
		if err != nil {
			t.Fatal(err)
		}
		in := instcache.Instance{G: p.G, Model: p.Model, R: p.R, Convention: p.Convention}
		key, _ := in.Key()
		if got, want := instcache.RouteOf(key), in.Route(); got != want {
			t.Fatalf("%s: RouteOf(Key()) = %q, want Route() = %q", tc.name, got, want)
		}
		routed, err := cluster.RouteKey(tc.req, 0)
		if err != nil {
			t.Fatal(err)
		}
		if routed != in.Route() {
			t.Fatalf("%s: cluster.RouteKey = %q, want Route() = %q", tc.name, routed, in.Route())
		}
		if got := instcache.RouteOf(routed); got != routed {
			t.Fatalf("%s: RouteOf(route) = %q, want %q", tc.name, got, routed)
		}
	}
	// Keys without a route field — opaque test keys, and keys of older
	// builds, which open with the hex canonical digest — map to
	// themselves.
	for _, k := range []string{"k", "", "wl", "wl|x", "0123456789abcdef0123|oneshot|eps0|r3|sbfalse|bbfalse"} {
		if got := instcache.RouteOf(k); got != k {
			t.Fatalf("RouteOf(%q) = %q, want the key itself", k, got)
		}
	}
}
