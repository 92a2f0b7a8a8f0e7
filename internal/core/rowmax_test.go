package core_test

// rowmax_test.go pins what the row-max reception kernel (stepNode) relies
// on, from outside the engine: crashed senders hold 0, so a scan that
// reads their held color instead of checking the crash flag receives
// nothing from them; and the golden grid reaches the kernel's fallback,
// where the best candidate of a Byzantine-free row fails verification.

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/rng"
)

// crashedHoldZero asserts that each crashed node holds 0 on every board a
// round reads: at every round end, and at every subphase start (after
// color generation, the board round 1 reads), through the adversary's
// SubphaseStart hook, which it wraps. It counts the crashed node checks.
type crashedHoldZero struct {
	core.Adversary
	t       *testing.T
	checked int
}

func (o *crashedHoldZero) SubphaseStart(w *core.World) {
	o.check(w)
	o.Adversary.SubphaseStart(w)
}

func (o *crashedHoldZero) RoundEnd(w *core.World) { o.check(w) }

func (o *crashedHoldZero) check(w *core.World) {
	for v := 0; v < w.N(); v++ {
		if !w.IsCrashed(v) {
			continue
		}
		o.checked++
		if h := w.Held(v); h != 0 {
			o.t.Fatalf("phase %d subphase %d round %d: crashed node %d holds %d, want 0",
				w.Clock.Phase, w.Clock.Subphase, w.Clock.Round, v, h)
		}
	}
}

// TestCrashedNodesHoldZero checks the invariant under every way a node
// stops: crash churn, join churn (nodes down between leaving and
// rejoining), and crashes in the topology exchange, each with and
// without message loss, in both frontier modes.
func TestCrashedNodesHoldZero(t *testing.T) {
	const n = 256
	net := hgraph.MustNew(hgraph.Params{N: n, D: 8, Seed: 91})
	byz := hgraph.PlaceByzantine(n, 6, rng.New(92))
	for _, tc := range []struct {
		name   string
		alg    core.Algorithm
		adv    string
		byz    []bool
		faults []core.FaultModel
	}{
		{name: "crash-churn", alg: core.AlgorithmByzantine, adv: "none",
			faults: []core.FaultModel{core.CrashChurn{Crashes: 12, Seed: 93}}},
		{name: "crash-churn/basic", alg: core.AlgorithmBasic, adv: "none",
			faults: []core.FaultModel{core.CrashChurn{Crashes: 12, Seed: 93}}},
		{name: "join-churn", alg: core.AlgorithmByzantine, adv: "inflate", byz: byz,
			faults: []core.FaultModel{core.JoinChurn{Count: 12, Seed: 94}}},
		{name: "join-churn/basic", alg: core.AlgorithmBasic, adv: "none",
			faults: []core.FaultModel{core.JoinChurn{Count: 12, Seed: 94}}},
		{name: "topology-liar", alg: core.AlgorithmByzantine, adv: "topology-liar", byz: byz},
	} {
		for _, loss := range []float64{0, 0.05} {
			for _, mode := range []struct {
				name string
				fm   core.FrontierMode
			}{{"frontier", core.FrontierOn}, {"dense", core.FrontierOff}} {
				name := fmt.Sprintf("%s/loss=%v/%s", tc.name, loss, mode.name)
				t.Run(name, func(t *testing.T) {
					adv, ok := adversary.ByName(tc.adv)
					if !ok {
						t.Fatalf("unknown adversary %q", tc.adv)
					}
					if adv == nil {
						adv = core.HonestAdversary{}
					}
					faults := tc.faults
					if loss > 0 {
						faults = append(faults[:len(faults):len(faults)], core.MessageLoss{Prob: loss})
					}
					obs := &crashedHoldZero{Adversary: adv, t: t}
					cfg := core.Config{Algorithm: tc.alg, Seed: 95, Workers: 2, MaxPhase: 12,
						Faults: faults, FrontierRounds: mode.fm, Observer: obs}
					if _, err := core.Run(net, tc.byz, obs, cfg); err != nil {
						t.Fatal(err)
					}
					if obs.checked == 0 {
						t.Fatal("no crashed node observed: the check is vacuous")
					}
				})
			}
		}
	}
}

// rowMaxFallbacks watches a run from outside and counts the round steps
// in which an honest node with a row-max row — no Byzantine sender, and
// no message loss in the run — saw a candidate above its held color yet
// did not take the row maximum. The kernel verifies the maximum's first
// arrival and takes it if it passes, so each counted step is one in which
// that verification failed and the candidate buffer was built.
type rowMaxFallbacks struct {
	prev   []int64 // held colors before the round (what the round received)
	byzRow []bool
	count  int
}

func (o *rowMaxFallbacks) RoundEnd(w *core.World) {
	n := w.N()
	if o.prev == nil {
		o.byzRow = make([]bool, n)
		for v := 0; v < n; v++ {
			for _, nb := range w.Net.H.Neighbors(v) {
				o.byzRow[v] = o.byzRow[v] || w.Byz[nb]
			}
		}
	}
	if w.Clock.Round > 1 {
		for v := 0; v < n; v++ {
			if w.Byz[v] || w.IsCrashed(v) || o.byzRow[v] {
				continue
			}
			var m int64
			for _, nb := range w.Net.H.Neighbors(v) {
				m = max(m, o.prev[nb])
			}
			if m > o.prev[v] && w.Held(v) != m {
				o.count++
			}
		}
	}
	// Round 1 receives the colors drawn at the subphase start, which the
	// observer never sees; its steps are skipped above, and its end state
	// is the next round's input.
	o.prev = o.prev[:0]
	for v := 0; v < n; v++ {
		o.prev = append(o.prev, w.Held(v))
	}
}

// TestGoldenGridRunsRowMaxFallback keeps the golden digests meaningful for
// the kernel's fallback: some loss-free golden case must fail the
// verification of a Byzantine-free row's maximum, so a change to the
// fallback's call sequence moves a pinned digest.
func TestGoldenGridRunsRowMaxFallback(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: goldenN, D: goldenD, Seed: goldenNetSeed})
	total := 0
	for _, gc := range goldenCases {
		if gc.algorithm != core.AlgorithmByzantine || gc.loss > 0 {
			continue
		}
		var byz []bool
		if gc.byzCount > 0 {
			byz = hgraph.PlaceByzantine(goldenN, gc.byzCount, rng.New(goldenByzSeed))
		}
		obs := &rowMaxFallbacks{}
		cfg := core.Config{
			Algorithm: gc.algorithm,
			Seed:      goldenRunSeed,
			Workers:   1,
			Observer:  obs,
		}
		if gc.churn > 0 {
			cfg.Faults = append(cfg.Faults, core.CrashChurn{Crashes: gc.churn, Seed: goldenRunSeed + 1})
		}
		if gc.join > 0 {
			cfg.Faults = append(cfg.Faults, core.JoinChurn{Count: gc.join, Seed: goldenRunSeed + 2})
		}
		res, err := core.Run(net, byz, goldenAdversary(t, gc), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(t, res); got != gc.digest {
			t.Fatalf("%s: observed run diverges from its golden digest", gc.name)
		}
		total += obs.count
		t.Logf("%s: %d row-max fallbacks", gc.name, obs.count)
	}
	if total == 0 {
		t.Fatal("no golden case fails verification on a Byzantine-free row: the fallback is unpinned")
	}
}
