package hgraph

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
)

// BenchmarkGenerateH measures the raw expander construction (d/2
// Hamiltonian cycles), the first half of a network generation.
func BenchmarkGenerateH(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GenerateH(n, 8, rng.New(uint64(i)))
			}
		})
	}
}

// BenchmarkNew measures full network generation — H plus the radius-k
// lattice closure G = H∪L, which New leaves to Network.G. This is the
// fast path: the row-bitmap lattice closure, timed like NewReference's
// eager one.
func BenchmarkNew(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net, err := New(Params{N: n, D: 8, Seed: uint64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				net.G()
			}
		})
	}
}

// BenchmarkNewReference measures the seed generator kept as the fast
// path's oracle — the pair quantifies the fast path's win in isolation.
func BenchmarkNewReference(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := NewReference(Params{N: n, D: 8, Seed: uint64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// buildGSink keeps BenchmarkBuildG's result live.
var buildGSink *graph.Graph

// BenchmarkBuildG measures the serial lattice closure alone, from
// n = 512 (one bitmap word per 64 nodes, a single summary word) to
// n = 65536 (sixteen summary words).
func BenchmarkBuildG(b *testing.B) {
	for _, n := range []int{512, 2048, 16384, 65536} {
		h := GenerateH(n, 8, rng.New(9))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildGSink = BuildG(h, DefaultK(8))
			}
		})
	}
}

// BenchmarkBuildGPooled measures the lattice closure alone on a worker
// pool, as Network.G builds it from parallelGenThreshold nodes up.
func BenchmarkBuildGPooled(b *testing.B) {
	pool := sim.NewPool(0)
	defer pool.Close()
	for _, n := range []int{4096} {
		h := GenerateH(n, 8, rng.New(9))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildGWith(h, DefaultK(8), pool)
			}
		})
	}
}
