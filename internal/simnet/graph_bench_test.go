package simnet

import (
	"testing"

	"banyan/internal/topology"
)

// BenchmarkGraphEngine prices the topology-true engine's two execution
// modes on a 2-ary 8-stage network (256 rows) at ρ=0.5: committed mode
// (infinite buffers, the batch kernel over the wiring's tables) against
// blocking mode (finite per-stage buffers, the literal-style cycle loop
// with head-of-line backpressure). The hotspot case is committed mode at
// the perfbench graph-hotspot shape — p=0.4 with a hot module at about
// 68% of tree saturation and per-switch counters on — so the kernel's
// general loop with the graph extras is priced too. B/op and allocs/op
// are deterministic and gated against BENCH_graph.json; ns/op is
// informational in CI.
func BenchmarkGraphEngine(b *testing.B) {
	base := Config{K: 2, Stages: 8, P: 0.5, Cycles: 20000, Warmup: 500, Seed: 9}
	b.Run("committed", func(b *testing.B) {
		cfg := base
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunGraph(&cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hotspot", func(b *testing.B) {
		cfg := Config{K: 2, Stages: 8, P: 0.4, HotModule: 0.004, Cycles: 20000, Warmup: 500, Seed: 9,
			Topology: topology.Omega, TrackSwitches: true}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunGraph(&cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blocking", func(b *testing.B) {
		cfg := base
		cfg.StageBuffers = []int{4, 4, 4, 4, 4, 4, 4, 4}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunGraph(&cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
