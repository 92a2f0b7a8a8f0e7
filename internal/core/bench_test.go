package core

import (
	"testing"

	"repro/internal/hgraph"
	"repro/internal/rng"
)

// benchNet memoizes generated networks across benchmarks in one process.
var benchNets = map[int]*hgraph.Network{}

func benchNet(n int) *hgraph.Network {
	if net, ok := benchNets[n]; ok {
		return net
	}
	net := hgraph.MustNew(hgraph.Params{N: n, D: 8, Seed: 11})
	benchNets[n] = net
	return net
}

func benchByz(n int) []bool {
	return hgraph.PlaceByzantine(n, hgraph.ByzantineBudget(n, 0.75), rng.New(12))
}

// BenchmarkRunFresh measures the one-shot entry point: every iteration
// pays full arena construction (the seed engine's only mode).
func BenchmarkRunFresh(b *testing.B) {
	net := benchNet(1024)
	byz := benchByz(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(net, byz, nil, Config{Algorithm: AlgorithmByzantine, Seed: 13, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRun measures the arena path the sweep runner uses on a network
// cache hit: one World reused across runs on the same network. This is
// the acceptance benchmark — compare ns/op against the seed engine's
// per-run construction at the same n.
func BenchmarkRun(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		n := n
		b.Run(map[int]string{1024: "n=1024", 4096: "n=4096"}[n], func(b *testing.B) {
			net := benchNet(n)
			byz := benchByz(n)
			w := NewWorld()
			defer w.Close()
			cfg := Config{Algorithm: AlgorithmByzantine, Seed: 13, Workers: 1}
			if _, err := w.Run(net, byz, nil, cfg); err != nil {
				b.Fatal(err) // warm the arena before timing
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(net, byz, nil, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubphase isolates the round loop: the steady-state cost of one
// i=4 subphase on a warm arena. Allocations here must be zero — the
// TestRoundLoopZeroAlloc guard pins that; the benchmark reports the rate.
func BenchmarkSubphase(b *testing.B) {
	net := benchNet(1024)
	byz := benchByz(1024)
	w := NewWorld()
	defer w.Close()
	if err := w.Reset(net, byz, nil, Config{Algorithm: AlgorithmByzantine, Seed: 13, Workers: 1}); err != nil {
		b.Fatal(err)
	}
	w.runSubphase(4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.runSubphase(4, 1)
	}
}

// BenchmarkSubphaseQuiescent isolates the frontier engine's regime: a
// 16-round subphase on a freshly Reset arena, where the flood stabilizes
// within the graph diameter (~4 rounds at n=1024) and the remaining
// rounds are pure quiescence. The dense loop re-scans every edge of
// every node in those rounds; the frontier engine skips them.
func BenchmarkSubphaseQuiescent(b *testing.B) {
	net := benchNet(1024)
	byz := benchByz(1024)
	for _, mode := range []struct {
		name string
		fm   FrontierMode
	}{{"frontier", FrontierOn}, {"dense", FrontierOff}} {
		b.Run(mode.name, func(b *testing.B) {
			w := NewWorld()
			defer w.Close()
			cfg := Config{Algorithm: AlgorithmByzantine, Seed: 13, Workers: 1, FrontierRounds: mode.fm}
			if err := w.Reset(net, byz, nil, cfg); err != nil {
				b.Fatal(err)
			}
			w.runSubphase(16, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.runSubphase(16, 1)
			}
		})
	}
}

// TestRoundLoopZeroAlloc is the acceptance guard for the arena: once a
// run is set up, executing subphases — color generation, Byzantine send
// latching, the full stepNode/verify loop, bookkeeping — must not
// allocate, serial or parallel, with reliable links or under the
// message-loss fault model (whose per-edge coin is pure arithmetic).
func TestRoundLoopZeroAlloc(t *testing.T) {
	net := benchNet(512)
	byz := benchByz(512)
	for _, tc := range []struct {
		name   string
		faults []FaultModel
	}{
		{name: "reliable", faults: nil},
		{name: "loss", faults: []FaultModel{MessageLoss{Prob: 0.1}}},
	} {
		for _, workers := range []int{1, 4} {
			w := NewWorld()
			cfg := Config{Algorithm: AlgorithmByzantine, Seed: 13, Workers: workers, Faults: tc.faults}
			if err := w.Reset(net, byz, nil, cfg); err != nil {
				t.Fatal(err)
			}
			w.scheduleFaults()  // arm the loss plan as run() would
			w.runSubphase(4, 1) // warm any lazy state
			allocs := testing.AllocsPerRun(50, func() {
				w.runSubphase(4, 1)
			})
			if tc.faults != nil && w.dropped.Load() == 0 {
				t.Errorf("%s: loss model armed but nothing dropped — guard is vacuous", tc.name)
			}
			w.Close()
			if allocs != 0 {
				t.Errorf("%s workers=%d: round loop allocates %.1f objects per subphase, want 0", tc.name, workers, allocs)
			}
		}
	}
}
