package cluster

import (
	"encoding/json"
	"testing"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/service"
)

// BenchmarkRouteKey tracks the proxy's per-request routing cost — the
// request parse plus the route token — on graphs of the repo
// benchmark's hit pool.
func BenchmarkRouteKey(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *dag.DAG
	}{
		{"pyramid20", daggen.Pyramid(20)},
		{"fft6", daggen.FFT(6)},
		{"stencil20x20", daggen.Stencil1D(20, 20)},
	} {
		body, err := json.Marshal(bc.g)
		if err != nil {
			b.Fatal(err)
		}
		req := service.SolveRequest{DAG: body, Model: "oneshot", R: 4}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := RouteKey(req, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
