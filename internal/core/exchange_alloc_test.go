package core_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/rng"
)

// TestExchangeZeroAllocClaimFree: on a warm arena, the exchange under an
// adversary that never lies about the topology must not allocate. Every
// candidate victim still runs its k-ball BFS and asks its Byzantine
// channels for claims; with no claim there is nothing to check, and the
// channel set is read from the BFS scratch instead of being built.
func TestExchangeZeroAllocClaimFree(t *testing.T) {
	const n = 512
	net := hgraph.MustNew(hgraph.Params{N: n, D: 8, Seed: 11})
	byz := hgraph.PlaceByzantine(n, hgraph.ByzantineBudget(n, 0.75), rng.New(12))
	for _, name := range []string{"none", "inflate", "oracle"} {
		adv, ok := adversary.ByName(name)
		if !ok {
			t.Fatalf("unknown adversary %q", name)
		}
		w := core.NewWorld()
		if err := w.Reset(net, byz, adv, core.Config{Algorithm: core.AlgorithmByzantine, Seed: 13, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if len(w.ByzantineNodes()) == 0 {
			t.Fatal("no Byzantine nodes: no victim would be examined")
		}
		if adv != nil {
			adv.Init(w)
		}
		w.RunExchange() // warm the BFS scratch
		allocs := testing.AllocsPerRun(20, w.RunExchange)
		w.Close()
		if allocs != 0 {
			t.Errorf("%s: exchange allocates %.1f objects per run on a warm arena, want 0", name, allocs)
		}
	}
}
