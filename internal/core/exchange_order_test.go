package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/hgraph"
	"repro/internal/rng"
)

// claimRecorder reports truthfully and logs every ClaimHNeighbors call as
// a (victim, Byzantine node) pair.
type claimRecorder struct {
	HonestAdversary
	log [][2]int32
}

func (r *claimRecorder) ClaimHNeighbors(_ *World, b, v int) []int32 {
	r.log = append(r.log, [2]int32{int32(v), int32(b)})
	return nil
}

// TestExchangeClaimOrderMatchesVictimBFS pins the exchange's claim order
// and channel set to their definitions: victims ascending and, for each,
// its Byzantine channels in the order a BFS from the victim reaches them;
// and G's row of v plus v is exactly v's radius-K ball in H. The exchange
// orders a victim's channels from the Byzantine side, by distance and
// then by the victim's least row-index path, and reads the channel set
// from G's row. The grid has parallel edges (small n at d = 4), balls
// that cover the whole network (large K), and dense placements; one arena
// runs it all, so its slabs are reused across sizes too.
func TestExchangeClaimOrderMatchesVictimBFS(t *testing.T) {
	rec := &claimRecorder{}
	w := NewWorld()
	defer w.Close()
	var want [][2]int32
	var order []int32 // every node's ball in BFS order, node after node
	var start []int   // where each node's ball starts in order
	configs := 0
	for _, n := range []int{12, 30, 96, 200, 513} {
		for _, d := range []int{4, 6, 8, 12} {
			if n <= d {
				continue
			}
			for k := 1; k <= 5; k++ {
				for netSeed := uint64(1); netSeed <= 2; netSeed++ {
					net, err := hgraph.New(hgraph.Params{N: n, D: d, K: k, Seed: netSeed})
					if err != nil {
						t.Fatal(err)
					}
					scratch := graph.NewBFS(net.H)
					order, start = order[:0], start[:0]
					for v := 0; v < n; v++ {
						nodes, dist := graph.BallWith(scratch, v, k)
						start = append(start, len(order))
						order = append(order, nodes...)
						// A strictly ascending row of nodes at distance
						// 1..k, one shorter than the ball, is the ball
						// without v.
						row := net.G.Neighbors(v)
						ok := len(row)+1 == len(nodes)
						for i, y := range row {
							ok = ok && dist[y] >= 1 && (i == 0 || row[i-1] < y)
						}
						if !ok {
							t.Fatalf("n=%d d=%d k=%d seed=%d: node %d has G row %v, H ball %v", n, d, k, netSeed, v, row, nodes)
						}
					}
					start = append(start, len(order))

					for _, count := range []int{1, 3, 9, n / 3} {
						for placeSeed := uint64(1); placeSeed <= 2; placeSeed++ {
							byz := hgraph.PlaceByzantine(n, count, rng.New(netSeed<<16|placeSeed<<8|uint64(count)))
							cfg := Config{Algorithm: AlgorithmByzantine, Seed: placeSeed, Workers: 1}
							if err := w.Reset(net, byz, rec, cfg); err != nil {
								t.Fatal(err)
							}
							rec.log = rec.log[:0]
							w.runExchange()
							want = want[:0]
							for v := 0; v < n; v++ {
								if byz[v] {
									continue
								}
								for _, x := range order[start[v]:start[v+1]] {
									if byz[x] {
										want = append(want, [2]int32{int32(v), x})
									}
								}
							}
							if i := firstDiff(rec.log, want); i >= 0 {
								t.Fatalf("n=%d d=%d k=%d seeds=%d/%d byz=%d: call %d of %d is (victim, node) %v, want %v of %d",
									n, d, k, netSeed, placeSeed, count, i, len(rec.log), at(rec.log, i), at(want, i), len(want))
							}
							configs++
						}
					}
				}
			}
		}
	}
	t.Logf("%d configurations agree", configs)
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b [][2]int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// at returns s[i], or (-1, -1) past the end.
func at(s [][2]int32, i int) [2]int32 {
	if i < len(s) {
		return s[i]
	}
	return [2]int32{-1, -1}
}
