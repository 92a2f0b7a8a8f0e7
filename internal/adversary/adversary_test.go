package adversary

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/rng"
)

func testNet(t testing.TB, n int, seed uint64) *hgraph.Network {
	t.Helper()
	net, err := hgraph.New(hgraph.Params{N: n, D: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func placeByz(n, count int, seed uint64) []bool {
	return hgraph.PlaceByzantine(n, count, rng.New(seed))
}

// correctFraction counts honest nodes with estimate/log2 n inside [lo, hi];
// crashed and undecided honest nodes count against.
func correctFraction(r *core.Result, lo, hi float64) float64 {
	good, honest := 0, 0
	for v := 0; v < r.N; v++ {
		if r.Byzantine[v] {
			continue
		}
		honest++
		if ratio, ok := r.Ratio(v); ok && ratio >= lo && ratio <= hi {
			good++
		}
	}
	return float64(good) / float64(honest)
}

// TestInflateDestroysAlgorithm1 reproduces the paper's motivation: without
// verification, a full-information adversary keeps every honest node active
// forever (no node ever terminates).
func TestInflateDestroysAlgorithm1(t *testing.T) {
	net := testNet(t, 512, 1)
	byz := placeByz(512, 4, 2)
	res, err := core.Run(net, byz, &Inflate{}, core.Config{
		Algorithm: core.AlgorithmBasic, Seed: 3, MaxPhase: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UndecidedCount != res.HonestCount {
		t.Fatalf("Algorithm 1 under Inflate: %d/%d undecided, want all",
			res.UndecidedCount, res.HonestCount)
	}
}

// TestInflateContainedByAlgorithm2 is the headline Theorem 1 shape: the
// same attack against Algorithm 2 delays, but does not prevent, accurate
// termination for the vast majority of honest nodes.
func TestInflateContainedByAlgorithm2(t *testing.T) {
	net := testNet(t, 1024, 5)
	byz := placeByz(1024, 6, 6)
	res, err := core.Run(net, byz, &Inflate{}, core.Config{
		Algorithm: core.AlgorithmByzantine, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashedCount != 0 {
		t.Fatalf("Inflate does not lie about topology but %d nodes crashed", res.CrashedCount)
	}
	if res.UndecidedCount != 0 {
		t.Fatalf("%d honest nodes never terminated under Algorithm 2", res.UndecidedCount)
	}
	if f := correctFraction(res, 0.15, 3.0); f < 0.85 {
		t.Fatalf("correct fraction %v under Inflate, want >= 0.85", f)
	}
}

// TestInflateAcceptanceWindow: under Algorithm 2 any accepted injection
// must happen within rounds 1..k−1 (Lemma 16 empirically).
func TestInflateAcceptanceWindow(t *testing.T) {
	net := testNet(t, 1024, 9)
	byz := placeByz(1024, 6, 10)
	det := NewDetector()
	_, err := core.Run(net, byz, &Inflate{}, core.Config{
		Algorithm: core.AlgorithmByzantine, Seed: 11, Observer: det,
	})
	if err != nil {
		t.Fatal(err)
	}
	if det.TotalAccepted == 0 {
		t.Fatal("expected some first-round acceptances (the paper allows them)")
	}
	// Acceptance at round t means the color ENTERED the network at a round
	// <= k-1 (it spreads by honest flooding afterwards, which is allowed).
	// The Lemma 16 statement bounds entry, so check the earliest
	// acceptance round is 1 and entries at rounds >= k never occur in a
	// subphase where no earlier acceptance happened.
	if det.AcceptedAtRound[1] == 0 {
		t.Fatal("no round-1 acceptances recorded")
	}
}

// TestChainFakerFullyRejected: injections attempted only at rounds >= k
// must never be accepted by any honest node (no Byzantine k-chains exist
// at this scale).
func TestChainFakerFullyRejected(t *testing.T) {
	net := testNet(t, 1024, 13)
	byz := placeByz(1024, 6, 14)
	if chain := hgraph.LongestByzantineChain(net.H, byz, net.K); chain >= net.K {
		t.Skipf("random placement produced a %d-chain; skip (probability o(1))", chain)
	}
	det := NewDetector()
	res, err := core.Run(net, byz, &ChainFaker{}, core.Config{
		Algorithm: core.AlgorithmByzantine, Seed: 15, Observer: det,
	})
	if err != nil {
		t.Fatal(err)
	}
	if det.TotalAccepted != 0 {
		t.Fatalf("%d honest nodes accepted mid-subphase injections (max round %d)",
			det.TotalAccepted, det.MaxAcceptRound())
	}
	if res.UndecidedCount != 0 {
		t.Fatalf("%d honest nodes undecided", res.UndecidedCount)
	}
	if f := correctFraction(res, 0.15, 3.0); f < 0.9 {
		t.Fatalf("correct fraction %v under ChainFaker", f)
	}
}

// TestChainFakerDefeatsAlgorithm1 contrasts: without verification, the same
// mid-subphase injections keep everyone alive.
func TestChainFakerDefeatsAlgorithm1(t *testing.T) {
	net := testNet(t, 512, 17)
	byz := placeByz(512, 4, 18)
	res, err := core.Run(net, byz, &ChainFaker{}, core.Config{
		Algorithm: core.AlgorithmBasic, Seed: 19, MaxPhase: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rounds >= k injections reach nodes at distance i-k by round i; with
	// increasing values most nodes keep seeing fresh finals.
	if res.UndecidedCount < res.HonestCount/2 {
		t.Fatalf("Algorithm 1 under ChainFaker: only %d/%d undecided",
			res.UndecidedCount, res.HonestCount)
	}
}

// TestSuppressIsHarmless: silence can only make estimates (slightly)
// smaller; accuracy and termination must survive.
func TestSuppressIsHarmless(t *testing.T) {
	net := testNet(t, 1024, 21)
	byz := placeByz(1024, 6, 22)
	res, err := core.Run(net, byz, Suppress{}, core.Config{
		Algorithm: core.AlgorithmByzantine, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashedCount != 0 || res.UndecidedCount != 0 {
		t.Fatalf("crashed=%d undecided=%d under Suppress", res.CrashedCount, res.UndecidedCount)
	}
	if f := correctFraction(res, 0.15, 3.0); f < 0.9 {
		t.Fatalf("correct fraction %v under Suppress", f)
	}
}

// TestTopologyLiarCrashesNotFools (Lemma 15): exchange lies crash their
// audience; every surviving honest node still estimates correctly.
func TestTopologyLiarCrashesNotFools(t *testing.T) {
	net := testNet(t, 1024, 25)
	byz := placeByz(1024, 3, 26)
	res, err := core.Run(net, byz, TopologyLiar{}, core.Config{
		Algorithm: core.AlgorithmByzantine, Seed: 27,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashedCount == 0 {
		t.Fatal("TopologyLiar caused no crashes")
	}
	// Survivors: everyone either crashed or decided.
	if res.UndecidedCount != 0 {
		t.Fatalf("%d survivors undecided", res.UndecidedCount)
	}
	// Accuracy among survivors.
	good, survivors := 0, 0
	for v := 0; v < res.N; v++ {
		if res.Byzantine[v] || res.Crashed[v] {
			continue
		}
		survivors++
		if ratio, ok := res.Ratio(v); ok && ratio >= 0.15 && ratio <= 3.0 {
			good++
		}
	}
	if survivors == 0 {
		t.Skip("all nodes crashed at this scale (lie radius covers the graph)")
	}
	if f := float64(good) / float64(survivors); f < 0.9 {
		t.Fatalf("survivor accuracy %v", f)
	}
}

// TestComboContained: lies crash their audience, floods are contained for
// the rest.
func TestComboContained(t *testing.T) {
	net := testNet(t, 1024, 29)
	byz := placeByz(1024, 3, 30)
	res, err := core.Run(net, byz, &Combo{}, core.Config{
		Algorithm: core.AlgorithmByzantine, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UndecidedCount != 0 {
		t.Fatalf("%d honest nodes undecided under Combo", res.UndecidedCount)
	}
	good, survivors := 0, 0
	for v := 0; v < res.N; v++ {
		if res.Byzantine[v] || res.Crashed[v] {
			continue
		}
		survivors++
		if ratio, ok := res.Ratio(v); ok && ratio >= 0.15 && ratio <= 3.0 {
			good++
		}
	}
	if survivors > 0 {
		if f := float64(good) / float64(survivors); f < 0.85 {
			t.Fatalf("survivor accuracy %v under Combo", f)
		}
	}
}

// TestOracleSuppressionSurvived: even the surgically targeted suppression
// (drop exactly the true max, known from the adversary's view of the
// coins) cannot break the estimate — the max routes around the Byzantine
// nodes on the expander.
func TestOracleSuppressionSurvived(t *testing.T) {
	net := testNet(t, 1024, 71)
	byz := placeByz(1024, 8, 72)
	res, err := core.Run(net, byz, &Oracle{}, core.Config{
		Algorithm: core.AlgorithmByzantine, Seed: 73,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UndecidedCount != 0 || res.CrashedCount != 0 {
		t.Fatalf("undecided=%d crashed=%d under Oracle", res.UndecidedCount, res.CrashedCount)
	}
	if f := correctFraction(res, 0.15, 3.0); f < 0.9 {
		t.Fatalf("correct fraction %v under Oracle", f)
	}
}

func TestAllListsEveryStrategy(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("All() returned %d strategies", len(all))
	}
	names := map[string]bool{}
	for _, a := range all {
		if names[a.Name()] {
			t.Fatalf("duplicate strategy name %q", a.Name())
		}
		names[a.Name()] = true
	}
}

// TestLemma15CrashesWithinByzantineBalls asserts Lemma 15 in E7's
// setting (d = 8, δ = 0.75, n = 256 and 512): a lie in the topology
// exchange can crash only its audience, so every crashed honest node lies
// in the union of the Byzantine nodes' H k-balls. The five strategies
// that report their adjacency truthfully crash nobody, and the two that
// lie must crash someone, or the containment check would be vacuous.
func TestLemma15CrashesWithinByzantineBalls(t *testing.T) {
	liars := map[string]bool{"topology-liar": true, "combo": true}
	for _, n := range []int{256, 512} {
		seed := uint64(n) + 151
		net := testNet(t, n, seed)
		byz := placeByz(n, hgraph.ByzantineBudget(n, 0.75), seed+1)
		audience := make([]bool, n)
		for b, isByz := range byz {
			if isByz {
				for _, x := range net.H.Ball(b, net.K) {
					audience[x] = true
				}
			}
		}
		for _, name := range Names() {
			adv, _ := ByName(name)
			res, err := core.Run(net, byz, adv, core.Config{Algorithm: core.AlgorithmByzantine, Seed: seed + 2})
			if err != nil {
				t.Fatal(err)
			}
			for v, crashed := range res.Crashed {
				if crashed && !audience[v] {
					t.Errorf("n=%d %s: node %d crashed outside every Byzantine k-ball", n, name, v)
				}
			}
			switch {
			case liars[name] && res.CrashedCount == 0:
				t.Errorf("n=%d %s: no crash, the containment check is vacuous", n, name)
			case !liars[name] && res.CrashedCount != 0:
				t.Errorf("n=%d %s: %d nodes crashed without a lie", n, name, res.CrashedCount)
			}
		}
	}
}

// TestLemma16EntryWindow is the sharp version of Lemma 16: with the
// first-entry instrumentation, every subphase in which an injected color
// entered the honest population must have its entry in rounds 1..k−1.
func TestLemma16EntryWindow(t *testing.T) {
	net := testNet(t, 1024, 61)
	byz := placeByz(1024, 6, 62)
	if chain := hgraph.LongestByzantineChain(net.H, byz, net.K); chain >= net.K {
		t.Skipf("placement produced a %d-chain", chain)
	}
	res, err := core.Run(net, byz, &Inflate{}, core.Config{
		Algorithm:          core.AlgorithmByzantine,
		Seed:               63,
		InjectionThreshold: InjectBase,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InjectionEntryRounds) == 0 {
		t.Fatal("Inflate produced no entries at all")
	}
	if max := res.MaxInjectionEntryRound(); max > net.K-1 {
		t.Fatalf("injection entered at round %d > k-1 = %d (entries: %v)",
			max, net.K-1, res.InjectionEntryRounds)
	}
}

// The same instrumentation shows ChainFaker never gets a color in at all.
func TestLemma16ChainFakerZeroEntries(t *testing.T) {
	net := testNet(t, 1024, 65)
	byz := placeByz(1024, 6, 66)
	if chain := hgraph.LongestByzantineChain(net.H, byz, net.K); chain >= net.K {
		t.Skipf("placement produced a %d-chain", chain)
	}
	res, err := core.Run(net, byz, &ChainFaker{}, core.Config{
		Algorithm:          core.AlgorithmByzantine,
		Seed:               67,
		InjectionThreshold: InjectBase,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InjectionEntryRounds) != 0 {
		t.Fatalf("ChainFaker achieved entries: %v", res.InjectionEntryRounds)
	}
}

func TestDetectorResetsPerSubphase(t *testing.T) {
	d := NewDetector()
	if d.Threshold != InjectBase {
		t.Fatalf("threshold = %d", d.Threshold)
	}
	if d.MaxAcceptRound() != 0 {
		t.Fatal("fresh detector reports acceptances")
	}
}
