// bench_test.go regenerates every experiment table (DESIGN.md §3) under
// `go test -bench=.` — one Benchmark per experiment E1–E12, each reporting
// its headline metric through b.ReportMetric so the shape claims are
// visible straight from the bench output:
//
//	go test -bench=E07 -benchmem          # Theorem 1 headline
//	go test -bench=. -benchmem            # the full suite
//
// Protocol-level micro-benches (BenchmarkRun*) measure the simulator
// itself (rounds/sec, allocations).
package byzcount

import (
	"strconv"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/hgraph"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// benchScale keeps experiment benches bounded; the full tables are
// produced by cmd/experiments -scale full.
func benchScale() expt.Scale {
	return expt.Scale{Sizes: []int{256, 512, 1024}, Trials: 1, Seed: 1}
}

func firstFloat(t *expt.Table, col int) float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	f, _ := strconv.ParseFloat(t.Rows[len(t.Rows)-1][col], 64)
	return f
}

func BenchmarkE01LocallyTreeLike(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		t := expt.E01LocallyTreeLike(benchScale())
		frac = firstFloat(t, 3)
	}
	b.ReportMetric(frac, "LTL-fraction")
}

func BenchmarkE02Expansion(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		t := expt.E02Expansion(expt.Scale{Sizes: []int{512}, Trials: 1, Seed: 1})
		gap = firstFloat(t, 4)
	}
	b.ReportMetric(gap, "spectral-gap")
}

func BenchmarkE03SmallWorld(b *testing.B) {
	var clustering float64
	for i := 0; i < b.N; i++ {
		t := expt.E03SmallWorld(expt.Scale{Sizes: []int{512}, Trials: 1, Seed: 1})
		// Row 1 of each size block is G.
		clustering = firstFloat(t, 2)
	}
	b.ReportMetric(clustering, "clustering")
}

func BenchmarkE04Reconstruction(b *testing.B) {
	var succ float64
	for i := 0; i < b.N; i++ {
		t := expt.E04Reconstruction(expt.Scale{Trials: 1, Seed: 1})
		succ = firstFloat(t, 5)
	}
	b.ReportMetric(succ, "derivation-success")
}

func BenchmarkE05ByzChains(b *testing.B) {
	var p float64
	for i := 0; i < b.N; i++ {
		t := expt.E05ByzantineChains(expt.Scale{Sizes: []int{512}, Trials: 1, Seed: 1})
		p = firstFloat(t, 5)
	}
	b.ReportMetric(p, "chain-probability")
}

func BenchmarkE06BasicCounting(b *testing.B) {
	var correct float64
	for i := 0; i < b.N; i++ {
		t := expt.E06BasicCounting(expt.Scale{Sizes: []int{512}, Trials: 1, Seed: 1})
		correct = firstFloat(t, 2)
	}
	b.ReportMetric(correct, "correct-fraction")
}

func BenchmarkE07Theorem1(b *testing.B) {
	var correct float64
	for i := 0; i < b.N; i++ {
		t := expt.E07Theorem1(expt.Scale{Sizes: []int{512}, Trials: 1, Seed: 1})
		correct = firstFloat(t, 3)
	}
	b.ReportMetric(correct, "correct-fraction")
}

func BenchmarkE08Baselines(b *testing.B) {
	var alg2 float64
	for i := 0; i < b.N; i++ {
		t := expt.E08Baselines(expt.Scale{Sizes: []int{512}, Trials: 1, Seed: 1})
		alg2 = firstFloat(t, 2)
	}
	b.ReportMetric(alg2, "alg2-correct")
}

func BenchmarkE09Complexity(b *testing.B) {
	var rounds float64
	for i := 0; i < b.N; i++ {
		t := expt.E09Complexity(benchScale())
		rounds = firstFloat(t, 2)
	}
	b.ReportMetric(rounds, "rounds-at-1024")
}

func BenchmarkE10Core(b *testing.B) {
	var coreFrac float64
	for i := 0; i < b.N; i++ {
		t := expt.E10Core(expt.Scale{Sizes: []int{512}, Trials: 1, Seed: 1})
		coreFrac = firstFloat(t, 5)
	}
	b.ReportMetric(coreFrac, "core-fraction")
}

func BenchmarkE11EpsilonSweep(b *testing.B) {
	var early float64
	for i := 0; i < b.N; i++ {
		t := expt.E11EpsilonSweep(expt.Scale{Sizes: []int{512}, Trials: 1, Seed: 1})
		early = firstFloat(t, 2)
	}
	b.ReportMetric(early, "early-deciders")
}

func BenchmarkE12Injection(b *testing.B) {
	var accepted float64
	for i := 0; i < b.N; i++ {
		t := expt.E12Injection(expt.Scale{Sizes: []int{512}, Trials: 1, Seed: 1})
		accepted = firstFloat(t, 2)
	}
	b.ReportMetric(accepted, "inflate-acceptances")
}

func BenchmarkE13Placement(b *testing.B) {
	var clusteredCorrect float64
	for i := 0; i < b.N; i++ {
		t := expt.E13Placement(expt.Scale{Sizes: []int{512}, Trials: 1, Seed: 1})
		// Row 1 of each size block is "clustered".
		clusteredCorrect = firstFloat(t, 6)
	}
	b.ReportMetric(clusteredCorrect, "spread-correct")
}

func BenchmarkE14Calibration(b *testing.B) {
	var cal float64
	for i := 0; i < b.N; i++ {
		t := expt.E14Calibration(expt.Scale{Sizes: []int{512}, Trials: 1, Seed: 1})
		cal = firstFloat(t, 2)
	}
	b.ReportMetric(cal, "calibrated-ratio")
}

func BenchmarkE15Churn(b *testing.B) {
	var survivorCorrect float64
	for i := 0; i < b.N; i++ {
		t := expt.E15Churn(expt.Scale{Sizes: []int{512}, Trials: 1, Seed: 1})
		survivorCorrect = firstFloat(t, 3)
	}
	b.ReportMetric(survivorCorrect, "survivor-correct")
}

// --- Simulator micro-benches ---

func benchRun(b *testing.B, n int, alg core.Algorithm, adv core.Adversary, byzCount int) {
	b.Helper()
	net, err := hgraph.New(hgraph.Params{N: n, D: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var byz []bool
	if byzCount > 0 {
		byz = hgraph.PlaceByzantine(n, byzCount, rng.New(2))
	}
	b.ResetTimer()
	var rounds int64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(net, byz, adv, core.Config{Algorithm: alg, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/run")
}

func BenchmarkRunBasic1024(b *testing.B) {
	benchRun(b, 1024, core.AlgorithmBasic, nil, 0)
}

func BenchmarkRunByzantine1024(b *testing.B) {
	benchRun(b, 1024, core.AlgorithmByzantine, nil, 0)
}

func BenchmarkRunByzantine4096(b *testing.B) {
	benchRun(b, 4096, core.AlgorithmByzantine, nil, 0)
}

func BenchmarkRunUnderInflate1024(b *testing.B) {
	benchRun(b, 1024, core.AlgorithmByzantine, &adversary.Inflate{}, 5)
}

func BenchmarkNetworkGeneration4096(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hgraph.MustNew(hgraph.Params{N: 4096, D: 8, Seed: uint64(i + 1)}).G()
	}
}

func BenchmarkSummarize(b *testing.B) {
	net, _ := hgraph.New(hgraph.Params{N: 1024, D: 8, Seed: 1})
	res, err := core.Run(net, nil, nil, core.Config{Algorithm: core.AlgorithmBasic, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Summarize(res, metrics.DefaultBand)
	}
}
