package core

import (
	"testing"

	"repro/internal/hgraph"
)

// TestByzReverseMatchesOracle checks the per-run reverse positions
// against a brute-force oracle on multigraphs: with each node Byzantine
// in turn on one reused arena, every entry leaving it must map to the
// j-th occurrence of it in the neighbour's row when the entry is the j-th
// occurrence of the neighbour in its own row, and carry its slot there.
// Small n with d close to n forces parallel edges and self-loops. Every
// other byzIn entry must read -1, so the previous node's marks were
// cleared.
func TestByzReverseMatchesOracle(t *testing.T) {
	for _, p := range []hgraph.Params{
		{N: 5, D: 4, Seed: 3},
		{N: 16, D: 8, Seed: 4},
		{N: 128, D: 8, Seed: 5},
	} {
		net := hgraph.MustNew(p)
		off, adj := net.H.CSR()
		n := net.H.N()
		w := NewWorld()
		for b := 0; b < n; b++ {
			byz := make([]bool, n)
			byz[b] = true
			if err := w.Reset(net, byz, nil, Config{Seed: 1, Workers: 1}); err != nil {
				t.Fatal(err)
			}
			if int(off[b+1]-off[b]) != len(w.byzRev) {
				t.Fatalf("%+v, node %d: %d reverse positions for %d entries", p, b, len(w.byzRev), off[b+1]-off[b])
			}
			want := map[int32]int32{} // reverse position -> slot
			slot := int32(-1)
			for e := off[b]; e < off[b+1]; e++ {
				x := adj[e]
				j := 0
				for f := off[b]; f < e; f++ {
					if adj[f] == x {
						j++
					}
				}
				if j == 0 {
					slot++
				}
				r := int32(-1)
				for f := off[x]; f < off[x+1]; f++ {
					if adj[f] == int32(b) {
						if j == 0 {
							r = f
							break
						}
						j--
					}
				}
				if got := w.byzRev[e-off[b]]; got != r {
					t.Fatalf("%+v, node %d: entry %d (%d→%d) reversed to %d, oracle %d", p, b, e, b, x, got, r)
				}
				want[r] = slot
			}
			for e, s := range w.byzIn {
				ws, ok := want[int32(e)]
				if !ok {
					ws = -1
				}
				if s != ws {
					t.Fatalf("%+v, node %d: byzIn[%d] = %d, want %d", p, b, e, s, ws)
				}
			}
		}
		w.Close()
	}
}

// TestCandInsertKeepsBest covers the maxCandidates overflow fix: the seed
// engine silently dropped candidates past the first 64; the bounded
// insert must instead retain the 64 largest seen.
func TestCandInsertKeepsBest(t *testing.T) {
	var cb candBuf
	overflows := 0
	insert := func(c int64, nb int32) {
		if cb.insert(c, nb) {
			overflows++
		}
	}
	// Fill with 100..163, then offer worse and better values.
	for i := 0; i < maxCandidates; i++ {
		insert(int64(100+i), int32(i))
	}
	if cb.n != maxCandidates {
		t.Fatalf("n = %d, want %d", cb.n, maxCandidates)
	}
	insert(50, 999) // worse than every kept value
	insert(500, 1000)
	insert(400, 1001)
	if cb.n != maxCandidates {
		t.Fatalf("overflow changed n to %d", cb.n)
	}
	if overflows != 3 {
		t.Fatalf("overflows = %d, want 3", overflows)
	}
	var min, max int64 = 1 << 62, 0
	has := map[int64]int32{}
	for q := 0; q < maxCandidates; q++ {
		has[cb.vals[q]] = cb.from[q]
		if cb.vals[q] < min {
			min = cb.vals[q]
		}
		if cb.vals[q] > max {
			max = cb.vals[q]
		}
	}
	if _, ok := has[50]; ok {
		t.Fatal("kept a candidate worse than the buffer minimum")
	}
	if f, ok := has[500]; !ok || f != 1000 {
		t.Fatalf("best overflow candidate not kept with its sender (has=%v from=%d)", ok, f)
	}
	if f, ok := has[400]; !ok || f != 1001 {
		t.Fatal("second overflow candidate not kept")
	}
	// 100 and 101 were the two smallest originals; both should be evicted.
	if _, ok := has[100]; ok {
		t.Fatal("smallest original survived eviction")
	}
	if _, ok := has[101]; ok {
		t.Fatal("second-smallest original survived eviction")
	}
	if min != 102 || max != 500 {
		t.Fatalf("kept range [%d,%d], want [102,500]", min, max)
	}
}

// TestCandBufMatchesReferenceEviction drives the cached-minimum overflow
// path against the O(maxCandidates)-per-call argmin scan it replaced:
// identical kept multisets, identical slot placement (ties evict the
// first minimal index), under an adversarial mix of ascending runs
// (every overflow replaces), descending runs (every overflow rejects in
// O(1)), and heavy ties.
func TestCandBufMatchesReferenceEviction(t *testing.T) {
	refInsert := func(vals *[maxCandidates]int64, from *[maxCandidates]int32, nc int, c int64, nb int32) int {
		if nc < maxCandidates {
			vals[nc], from[nc] = c, nb
			return nc + 1
		}
		mi := 0
		for q := 1; q < maxCandidates; q++ {
			if vals[q] < vals[mi] {
				mi = q
			}
		}
		if c > vals[mi] {
			vals[mi], from[mi] = c, nb
		}
		return nc
	}

	var seq []int64
	for i := 0; i < 3*maxCandidates; i++ { // ascending: worst case for the cache
		seq = append(seq, int64(i+1))
	}
	for i := 0; i < 2*maxCandidates; i++ { // descending: best case
		seq = append(seq, int64(1000-i))
	}
	for i := 0; i < 2*maxCandidates; i++ { // ties on the eviction floor
		seq = append(seq, int64(500+(i%3)))
	}

	var cb candBuf
	var refVals [maxCandidates]int64
	var refFrom [maxCandidates]int32
	refN := 0
	for idx, c := range seq {
		cb.insert(c, int32(idx))
		refN = refInsert(&refVals, &refFrom, refN, c, int32(idx))
	}
	if cb.n != refN {
		t.Fatalf("n = %d, reference %d", cb.n, refN)
	}
	for q := 0; q < maxCandidates; q++ {
		if cb.vals[q] != refVals[q] || cb.from[q] != refFrom[q] {
			t.Fatalf("slot %d: got (%d, %d), reference (%d, %d)",
				q, cb.vals[q], cb.from[q], refVals[q], refFrom[q])
		}
	}
}

// TestHighDegreeCandidateOverflow runs the engine at H-degree 160 — well
// past the candidate buffer, so the cached-minimum eviction path fires on
// real traffic — and checks that the overflow path actually fired (the
// regression would be vacuous otherwise), that the run completes with
// nodes deciding, and that frontier and dense scheduling agree even when
// eviction reshapes the candidate set. It runs Algorithm 2: the basic
// algorithm takes the row maximum and never fills the buffer, while a
// verifying row with more candidates than the buffer holds fills it
// before its first verification, since eviction decides which arrival of
// the best value is tried first.
func TestHighDegreeCandidateOverflow(t *testing.T) {
	if testing.Short() {
		t.Skip("dense network generation")
	}
	net := hgraph.MustNew(hgraph.Params{N: 360, D: 160, Seed: 9})
	w := NewWorld()
	defer w.Close()
	cfg := Config{Algorithm: AlgorithmByzantine, Seed: 10, MaxPhase: 4, Workers: 1, FrontierRounds: FrontierOn}
	res, err := w.Run(net, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.candOverflows.Load() == 0 {
		t.Fatal("no candidate overflow at d=160: the regression test exercises nothing")
	}
	if res.UndecidedCount+res.CrashedCount == res.HonestCount {
		t.Fatal("no node decided")
	}
	cfg.FrontierRounds = FrontierOff
	dense, err := w.Run(net, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, dense, res)
}
