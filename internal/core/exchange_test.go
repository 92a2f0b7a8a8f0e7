package core

import (
	"slices"
	"testing"

	"repro/internal/graph"
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

// TestExchangePhantomCrashesUnderConsistentRewiring: four Byzantine nodes
// rewire two real edges among themselves, b1–b2 and b3–b4, into b1–b3
// and b2–b4, and report the rewired topology to a victim v whose k-ball
// holds all four. Every claimed edge is confirmed by its other endpoint
// and every list has d entries, but b1 is one hop from v and b3 is k
// hops away, so the fake edge b1–b3 brings b3's neighbours at distance
// k+1 within claimed distance k. They are phantoms, outside v's channel
// set, and only the channel check catches them.
func TestExchangePhantomCrashesUnderConsistentRewiring(t *testing.T) {
	const n = 256
	net, err := hgraph.New(hgraph.Params{N: n, D: 8, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	k, h := net.K, net.H
	scratch := graph.NewBFS(h)
	find := func() (int, [4]int32) {
		for v := 0; v < n; v++ {
			ball, dist := graph.BallWith(scratch, v, k+1)
			inBall := func(x int32) bool { return x != int32(v) && dist[x] >= 1 && int(dist[x]) <= k }
			for _, b1 := range h.UniqueNeighbors(v) {
				for _, b2 := range h.UniqueNeighbors(int(b1)) {
					if !inBall(b2) || b2 == b1 {
						continue
					}
					for _, b3 := range ball {
						if int(dist[b3]) != k || b3 == b1 || b3 == b2 || h.HasEdge(int(b1), int(b3)) {
							continue
						}
						far := false
						for _, z := range h.Neighbors(int(b3)) {
							far = far || int(dist[z]) == k+1
						}
						for _, b4 := range h.UniqueNeighbors(int(b3)) {
							if far && inBall(b4) && b4 != b1 && b4 != b2 && !h.HasEdge(int(b2), int(b4)) {
								return v, [4]int32{b1, b2, b3, b4}
							}
						}
					}
				}
			}
		}
		t.Fatal("no victim with two Byzantine edges to rewire")
		return 0, [4]int32{}
	}
	v, b := find()
	rewire := func(x, from, to int32) []int32 {
		claim := slices.Clone(h.Neighbors(int(x)))
		claim[slices.Index(claim, from)] = to
		return claim
	}
	adv := &scriptedLiar{claims: map[int][]int32{
		int(b[0]): rewire(b[0], b[1], b[2]),
		int(b[1]): rewire(b[1], b[0], b[3]),
		int(b[2]): rewire(b[2], b[3], b[0]),
		int(b[3]): rewire(b[3], b[2], b[1]),
	}}
	w, _ := exchangeWorld(t, n, []int{int(b[0]), int(b[1]), int(b[2]), int(b[3])}, adv)
	if !w.crashed[v] {
		t.Fatalf("victim %d accepted the rewiring %v of its Byzantine channels", v, b)
	}
}

// funcLiar lies through a function of (Byzantine node, victim), so a
// test can recompute every claim a victim heard.
type funcLiar struct {
	HonestAdversary
	lie func(b, v int) []int32
}

func (f *funcLiar) ClaimHNeighbors(w *World, b, v int) []int32 { return f.lie(b, v) }

// ballVerdict is fullBallCheck's verdict on the claims one victim
// heard, with where it was decided.
type ballVerdict struct {
	ok          bool
	byPhantom   bool // the phantom check rejected
	claimerEdge bool // the BFS crossed an edge between two claimers
	// nearReject: rejected at a depth-(k−1) non-claimer with a claimer
	// among its H-neighbours, a row the exchange's first pass must read.
	nearReject bool
	// quietRows counts the depth-(k−1) rows expanded with no claimer in
	// or beside them, which the first pass skips.
	quietRows int
}

// fullBallCheck is the crash rule without the skips: v's BFS over the
// claimed topology to radius k with the degree, range and endpoint
// checks, then the phantom check over every node it reached.
func fullBallCheck(h *graph.Graph, k, d, v int, claims map[int32][]int32) (r ballVerdict) {
	adjOf := func(x int32) []int32 {
		if c, lied := claims[x]; lied {
			return c
		}
		return h.Neighbors(int(x))
	}
	besideClaimer := func(x int32) bool {
		for _, y := range h.Neighbors(int(x)) {
			if _, lied := claims[y]; lied {
				return true
			}
		}
		return false
	}
	n := h.N()
	dist := map[int32]int{int32(v): 0}
	queue := []int32{int32(v)}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		if dist[x] >= k {
			continue
		}
		_, xClaimed := claims[x]
		near := false
		if dist[x] == k-1 && !xClaimed {
			near = besideClaimer(x)
			if !near {
				r.quietRows++
			}
		}
		adj := adjOf(x)
		if len(adj) != d {
			return r
		}
		for _, y := range adj {
			if y < 0 || int(y) >= n {
				return r
			}
			_, yClaimed := claims[y]
			if (xClaimed || yClaimed) && !slices.Contains(adjOf(y), x) {
				r.nearReject = near
				return r
			}
			r.claimerEdge = r.claimerEdge || (xClaimed && yClaimed)
			if _, seen := dist[y]; !seen {
				dist[y] = dist[x] + 1
				queue = append(queue, y)
			}
		}
	}
	ball := graph.NewBFS(h).RunWithin(v, int32(k))
	for _, y := range queue {
		if ball[y] == graph.Unreached {
			r.byPhantom = true
			return r
		}
	}
	r.ok = true
	return r
}

// heardClaims returns the claims victim v hears from the Byzantine nodes
// of its k-ball, by lie (nil: the truth).
func heardClaims(h *graph.Graph, k, v int, byz []bool, lie func(b, v int) []int32) map[int32][]int32 {
	claims := map[int32][]int32{}
	for _, x := range h.Ball(v, k) {
		if byz[x] {
			if c := lie(int(x), v); c != nil {
				claims[x] = c
			}
		}
	}
	return claims
}

// TestExchangeClaimerEdgeSkipMatchesFullCheck: the exchange skips the
// phantom check for a victim whose claimed BFS crossed no edge between
// two claimers, and the depth-(k−1) rows with no claimer in or beside
// them. On random networks whose Byzantine nodes tell random victims
// consistent rewirings of their shared edges, reordered rows and
// phantom entries, every honest node crashes exactly when the full
// check rejects what it heard. The lies reach every outcome the skips
// separate: rejected by the phantom check after a claimer edge, accepted
// after one, accepted with the phantom check skipped, rejected at a
// depth-(k−1) neighbour of a claimer, and accepted with depth-(k−1) rows
// skipped.
func TestExchangeClaimerEdgeSkipMatchesFullCheck(t *testing.T) {
	var phantom, acceptedEdge, skipped, nearReject, rowsSkipped int
	for seed := uint64(1); seed <= 12; seed++ {
		n := 128 << (seed % 3)
		net, err := hgraph.New(hgraph.Params{N: n, D: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		h, k, d := net.H, net.K, net.Params.D
		src := rng.New(seed)
		byz := hgraph.PlaceByzantine(n, n/8, src)
		var byzIdx []int
		for b, isByz := range byz {
			if isByz {
				byzIdx = append(byzIdx, b)
			}
		}

		// Each Byzantine node tells one lie: its part of a rewiring of
		// two Byzantine–Byzantine edges a–b, c–e into a–c, b–e, its row
		// reversed, or one entry swapped for a random node.
		lies := map[int][]int32{}
		rewire := func(x, from, to int) {
			row := slices.Clone(h.Neighbors(x))
			row[slices.Index(row, int32(from))] = int32(to)
			lies[x] = row
		}
		for _, a := range byzIdx {
			if lies[a] != nil {
				continue
			}
			for _, b := range byzIdx {
				if b == a || lies[b] != nil || !h.HasEdge(a, b) {
					continue
				}
				for _, c := range byzIdx[src.Intn(len(byzIdx)):] {
					e := int(h.Neighbors(c)[src.Intn(d)])
					if c == a || c == b || e == a || e == b || e == c || !byz[e] ||
						lies[c] != nil || lies[e] != nil || h.HasEdge(a, c) || h.HasEdge(b, e) {
						continue
					}
					rewire(a, b, c)
					rewire(b, a, e)
					rewire(c, e, a)
					rewire(e, c, b)
					break
				}
				break
			}
		}
		for _, b := range byzIdx {
			if lies[b] != nil {
				continue
			}
			row := slices.Clone(h.Neighbors(b))
			if src.Intn(2) == 0 {
				slices.Reverse(row)
			} else {
				row[src.Intn(d)] = int32(src.Intn(n))
			}
			lies[b] = row
		}
		// A Byzantine node lies to about three victims in four.
		lie := func(b, v int) []int32 {
			if rng.Split(seed, uint64(b*n+v)).Intn(4) == 0 {
				return nil
			}
			return lies[b]
		}

		cfg := Config{Algorithm: AlgorithmByzantine, Seed: seed}.withDefaults(n)
		adv := &funcLiar{lie: lie}
		w := newWorld(net, byz, adv, cfg)
		adv.Init(w)
		w.runExchange()
		for v := 0; v < n; v++ {
			if byz[v] {
				continue
			}
			claims := heardClaims(h, k, v, byz, lie)
			if len(claims) == 0 {
				if w.crashed[v] {
					t.Fatalf("seed %d: victim %d crashed without hearing a claim", seed, v)
				}
				continue
			}
			r := fullBallCheck(h, k, d, v, claims)
			if w.crashed[v] == r.ok {
				t.Fatalf("seed %d: victim %d crashed=%v, full check %+v (claims from %d nodes)",
					seed, v, w.crashed[v], r, len(claims))
			}
			switch {
			case r.byPhantom:
				phantom++
			case r.nearReject:
				nearReject++
			case r.ok && r.claimerEdge:
				acceptedEdge++
			case r.ok:
				skipped++
				if r.quietRows > 0 {
					rowsSkipped++
				}
			}
		}
		w.Close()
	}
	t.Logf("phantom rejections %d, accepted after a claimer edge %d, phantom check skipped %d, "+
		"rejected beside a claimer at depth k-1 %d, accepted with depth-(k-1) rows skipped %d",
		phantom, acceptedEdge, skipped, nearReject, rowsSkipped)
	if phantom == 0 || acceptedEdge == 0 || skipped == 0 || nearReject == 0 || rowsSkipped == 0 {
		t.Fatalf("lies reached phantom %d, accepted-with-edge %d, skipped %d, near-reject %d, rows-skipped %d: every outcome needs a case",
			phantom, acceptedEdge, skipped, nearReject, rowsSkipped)
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
