package core

import (
	"testing"

	"repro/internal/hgraph"
	"repro/internal/rng"
)

// scriptedLiar lies in hand-written ways for exchange unit tests.
type scriptedLiar struct {
	HonestAdversary
	// claims[b] is what Byzantine node b reports to every victim
	// (nil = truthful).
	claims map[int][]int32
}

func (s *scriptedLiar) Name() string { return "scripted" }

func (s *scriptedLiar) ClaimHNeighbors(w *World, b, v int) []int32 {
	return s.claims[b]
}

// exchangeWorld builds a world and runs only the exchange.
func exchangeWorld(t *testing.T, n int, byzIdx []int, adv Adversary) (*World, *hgraph.Network) {
	t.Helper()
	net, err := hgraph.New(hgraph.Params{N: n, D: 8, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	byz := make([]bool, n)
	for _, b := range byzIdx {
		byz[b] = true
	}
	cfg := Config{Algorithm: AlgorithmByzantine, Seed: 5}.withDefaults(n)
	w := newWorld(net, byz, adv, cfg)
	t.Cleanup(w.Close)
	adv.Init(w)
	w.runExchange()
	return w, net
}

func countCrashed(w *World) int {
	c := 0
	for v := 0; v < w.N(); v++ {
		if w.crashed[v] {
			c++
		}
	}
	return c
}

func TestExchangeTruthfulNoCrashes(t *testing.T) {
	w, _ := exchangeWorld(t, 256, []int{3, 99}, HonestAdversary{})
	if c := countCrashed(w); c != 0 {
		t.Fatalf("truthful exchange crashed %d nodes", c)
	}
}

// A wrong-length claim must crash every honest node that hears it from
// within radius k-1 (H is d-regular "in the victim's eyes").
func TestExchangeWrongDegreeCrashes(t *testing.T) {
	const b = 10
	adv := &scriptedLiar{claims: map[int][]int32{b: {1, 2, 3}}} // 3 entries, d = 8
	w, net := exchangeWorld(t, 256, []int{b}, adv)
	crashed := countCrashed(w)
	if crashed == 0 {
		t.Fatal("wrong-degree claim caused no crashes")
	}
	// Victims are exactly the honest nodes whose claimed-BFS examines b's
	// adjacency: those within distance k-1 of b... at least b's direct
	// H-neighbors must crash.
	for _, nb := range net.H.UniqueNeighbors(b) {
		if !w.Byz[nb] && !w.crashed[nb] {
			t.Fatalf("direct neighbor %d of the liar did not crash", nb)
		}
	}
}

// Hiding a real honest neighbor (Figure 1's "suppress the real child u")
// contradicts the victim's own channel evidence.
func TestExchangeHiddenNeighborCrashes(t *testing.T) {
	const b = 20
	net0, err := hgraph.New(hgraph.Params{N: 256, D: 8, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	truth := net0.H.Neighbors(b)
	claim := append([]int32(nil), truth...)
	// Replace the first neighbor with a duplicate of the second: right
	// degree, but the hidden neighbor will contradict.
	hidden := claim[0]
	claim[0] = claim[1]
	adv := &scriptedLiar{claims: map[int][]int32{b: claim}}
	w, _ := exchangeWorld(t, 256, []int{b}, adv)
	if !w.crashed[hidden] && !w.Byz[int(hidden)] {
		t.Fatalf("hidden neighbor %d did not crash", hidden)
	}
}

// A claim naming a node the victim has no channel to (phantom) crashes.
func TestExchangePhantomCrashes(t *testing.T) {
	const n, b = 4096, 30
	net0, err := hgraph.New(hgraph.Params{N: n, D: 8, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	// Pick the farthest node from b: any direct H-neighbor v of b has
	// dist(v, far) >= ecc(b) - 1 > k, so "far" is outside v's channel set.
	bfs := func() (int32, int32) {
		d := net0.H.Ball(b, n) // warm path; distances via Dist below
		_ = d
		far, best := int32(-1), -1
		for v := 0; v < n; v += 37 { // sample for speed
			if dv := net0.H.Dist(b, v); dv > best {
				best = dv
				far = int32(v)
			}
		}
		return far, int32(best)
	}
	far, ecc := bfs()
	if int(ecc) < net0.K+2 {
		t.Skipf("eccentricity %d too small for a guaranteed phantom", ecc)
	}
	truth := net0.H.Neighbors(b)
	claim := append([]int32(nil), truth...)
	claim[0] = far
	adv := &scriptedLiar{claims: map[int][]int32{b: claim}}

	byz := make([]bool, n)
	byz[b] = true
	cfg := Config{Algorithm: AlgorithmByzantine, Seed: 5}.withDefaults(n)
	w := newWorld(net0, byz, adv, cfg)
	defer w.Close()
	adv.Init(w)
	w.runExchange()
	// Every direct honest H-neighbor of b sees a claim naming a node it
	// has no channel to.
	for _, nb := range net0.H.UniqueNeighbors(b) {
		if !w.Byz[nb] && !w.crashed[nb] {
			t.Fatalf("neighbor %d accepted a phantom claim", nb)
		}
	}
}

// Malformed claims: an ID past the last node, a negative ID, and a
// duplicate entry. The claimed-topology BFS indexes arrays by node ID, so
// the out-of-range IDs must crash the victim before they index anything,
// and the duplicate (which hides the entry it overwrote) must crash the
// hidden neighbor. A whole run over each claim must not panic either.
func TestExchangeMalformedClaimsCrash(t *testing.T) {
	const n, b = 256, 40
	net, err := hgraph.New(hgraph.Params{N: n, D: 8, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if net.K < 2 {
		t.Fatalf("k = %d: b's neighbors would never expand its claim", net.K)
	}
	truth := net.H.Neighbors(b)
	if truth[0] == truth[1] || truth[0] == b {
		t.Fatalf("node %d: first two neighbors %v do not give a hidden neighbor", b, truth[:2])
	}
	withEntry := func(id int32) []int32 {
		claim := append([]int32(nil), truth...)
		claim[0] = id
		return claim
	}
	for _, tc := range []struct {
		name    string
		claim   []int32
		victims []int32 // honest nodes that must crash
	}{
		{"node n", withEntry(n), net.H.UniqueNeighbors(b)},
		{"node -1", withEntry(-1), net.H.UniqueNeighbors(b)},
		{"duplicate", withEntry(truth[1]), []int32{truth[0]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			adv := &scriptedLiar{claims: map[int][]int32{b: tc.claim}}
			w, _ := exchangeWorld(t, n, []int{b}, adv)
			for _, v := range tc.victims {
				if !w.crashed[v] {
					t.Errorf("victim %d accepted the claim %v", v, tc.claim)
				}
			}
			byz := make([]bool, n)
			byz[b] = true
			res, err := Run(net, byz, adv, Config{Algorithm: AlgorithmByzantine, Seed: 5, MaxPhase: 4})
			if err != nil {
				t.Fatal(err)
			}
			if res.CrashedCount < len(tc.victims) {
				t.Errorf("run crashed %d nodes, want at least %d", res.CrashedCount, len(tc.victims))
			}
		})
	}
}

// Crashed nodes must stay silent for the whole run and never decide.
func TestCrashedNodesAreSilent(t *testing.T) {
	const b = 10
	adv := &scriptedLiar{claims: map[int][]int32{b: {1, 2, 3}}}
	net, err := hgraph.New(hgraph.Params{N: 256, D: 8, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	byz := make([]bool, 256)
	byz[b] = true
	res, err := Run(net, byz, adv, Config{Algorithm: AlgorithmByzantine, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashedCount == 0 {
		t.Fatal("expected crashes")
	}
	for v := 0; v < res.N; v++ {
		if res.Crashed[v] && res.Estimates[v] != 0 {
			t.Fatalf("crashed node %d produced estimate %d", v, res.Estimates[v])
		}
	}
}

// The engine must produce identical results regardless of worker count:
// parallelism is an implementation detail, not a semantics change.
func TestWorkerCountInvariance(t *testing.T) {
	net, err := hgraph.New(hgraph.Params{N: 512, D: 8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	byz := hgraph.PlaceByzantine(512, 5, rng.New(32))
	run := func(workers int) *Result {
		res, err := Run(net, byz, HonestAdversary{}, Config{
			Algorithm: AlgorithmByzantine, Seed: 33, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	if one.Rounds != four.Rounds {
		t.Fatalf("rounds differ across worker counts: %d vs %d", one.Rounds, four.Rounds)
	}
	for v := range one.Estimates {
		if one.Estimates[v] != four.Estimates[v] {
			t.Fatalf("node %d estimate differs across worker counts: %d vs %d",
				v, one.Estimates[v], four.Estimates[v])
		}
	}
	if one.Messages != four.Messages || one.Bits != four.Bits {
		t.Fatal("accounting differs across worker counts")
	}
}

// World accessors used by adversaries.
func TestWorldAccessors(t *testing.T) {
	net, err := hgraph.New(hgraph.Params{N: 128, D: 8, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	byz := make([]bool, 128)
	byz[7] = true
	cfg := Config{Algorithm: AlgorithmByzantine, Seed: 43}.withDefaults(128)
	w := newWorld(net, byz, HonestAdversary{}, cfg)
	defer w.Close()

	if w.N() != 128 {
		t.Fatalf("N = %d", w.N())
	}
	if got := w.ByzantineNodes(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("ByzantineNodes = %v", got)
	}
	if !w.IsActive(0) || w.IsActive(7) {
		t.Fatal("IsActive wrong")
	}
	// Coin stream clones must replay the node's own stream.
	a := w.CoinStream(3)
	bStream := w.CoinStream(3)
	for i := 0; i < 10; i++ {
		if a.Geometric() != bStream.Geometric() {
			t.Fatal("coin stream clones diverge")
		}
	}
	if w.HeldLogAt(0, -1) != 0 || w.HeldLogAt(0, 1<<20) != 0 {
		t.Fatal("out-of-range held log should be 0")
	}
	if w.GlobalRound() != 0 {
		t.Fatal("fresh world has nonzero round")
	}
}

// The adversary must be able to read honest colors right after
// SubphaseStart — full-information check, end to end.
func TestAdversarySeesColors(t *testing.T) {
	net, err := hgraph.New(hgraph.Params{N: 128, D: 8, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	byz := make([]bool, 128)
	byz[0] = true
	spy := &colorSpy{}
	if _, err := Run(net, byz, spy, Config{Algorithm: AlgorithmByzantine, Seed: 53, MaxPhase: 2}); err != nil {
		t.Fatal(err)
	}
	if !spy.sawColors {
		t.Fatal("adversary never observed honest colors")
	}
}

type colorSpy struct {
	HonestAdversary
	sawColors bool
}

func (s *colorSpy) SubphaseStart(w *World) {
	for v := 0; v < w.N(); v++ {
		if !w.Byz[v] && w.OwnColor(v) > 0 {
			s.sawColors = true
			return
		}
	}
}
