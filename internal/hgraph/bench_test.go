package hgraph

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
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

// BenchmarkNew measures network generation as a cache miss pays it: H,
// K and the IDs. No job builds G (see BenchmarkBuildG).
func BenchmarkNew(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(Params{N: n, D: 8, Seed: uint64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewReference measures the same generation with the seed's
// map-based ID set, kept as New's oracle.
func BenchmarkNewReference(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewReference(Params{N: n, D: 8, Seed: uint64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// buildGSink keeps BenchmarkBuildG's result live.
var buildGSink *graph.Graph

// BenchmarkBuildG measures the lattice closure alone, which only
// analysis code builds.
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
