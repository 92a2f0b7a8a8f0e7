package core_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/rng"
)

// TestExchangeZeroAllocClaimFree: on a warm arena, the exchange under an
// adversary that never lies about the topology must not allocate. Each
// Byzantine node still runs its k-ball BFS to record its victims, and each
// victim still asks its Byzantine channels for claims in BFS order; with
// no claim there is nothing to check and no channel set to read. The
// dense placement (n/3 Byzantine nodes) records about a hundred channels
// per victim, so it shows the record slabs are reused, not regrown.
func TestExchangeZeroAllocClaimFree(t *testing.T) {
	const n = 512
	net := hgraph.MustNew(hgraph.Params{N: n, D: 8, Seed: 11})
	placements := []struct {
		name string
		byz  []bool
	}{
		{"sparse", hgraph.PlaceByzantine(n, hgraph.ByzantineBudget(n, 0.75), rng.New(12))},
		{"dense", hgraph.PlaceByzantine(n, n/3, rng.New(12))},
	}
	for _, p := range placements {
		for _, name := range []string{"none", "inflate", "oracle"} {
			adv, ok := adversary.ByName(name)
			if !ok {
				t.Fatalf("unknown adversary %q", name)
			}
			w := core.NewWorld()
			if err := w.Reset(net, p.byz, adv, core.Config{Algorithm: core.AlgorithmByzantine, Seed: 13, Workers: 1}); err != nil {
				t.Fatal(err)
			}
			if len(w.ByzantineNodes()) == 0 {
				t.Fatal("no Byzantine nodes: no victim would be examined")
			}
			if adv != nil {
				adv.Init(w)
			}
			w.RunExchange() // size the record slabs and the BFS scratch
			allocs := testing.AllocsPerRun(20, w.RunExchange)
			w.Close()
			if allocs != 0 {
				t.Errorf("%s/%s: exchange allocates %.1f objects per run on a warm arena, want 0", p.name, name, allocs)
			}
		}
	}
}
