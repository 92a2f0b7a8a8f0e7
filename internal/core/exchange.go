package core

import (
	"math"
	"slices"

	"repro/internal/graph"
)

// runExchange simulates Algorithm 2 lines 1–2: every node asks its
// G-neighbors for adjacency information, reconstructs its k-ball in H, and
// crashes itself if it receives conflicting or contradictory reports.
//
// Honest nodes report truthfully; Byzantine nodes report whatever the
// adversary chooses per victim. A victim v crashes if, within its radius-k
// claimed ball,
//
//   - a claimed H-edge names a node outside v's channel set (v has a direct
//     G-channel to every node within H-distance k, so a phantom claim is
//     immediately inconsistent),
//   - a claimed edge is denied by its other endpoint (Figure 1: hiding a
//     real child or inventing a fake one always contradicts some honest
//     reporter), or
//   - a claimed adjacency list does not have exactly d entries (H is
//     d-regular "in v's eyes", as the Lemma 15 proof requires).
//
// Consistent lies between pairs of Byzantine nodes survive, exactly as in
// the paper; they can only fabricate all-Byzantine structures, which
// Observation 6 bounds.
func (w *World) runExchange() {
	// Only nodes with a Byzantine node inside their radius-k H-ball can
	// receive a lie; everyone else reconstructs the truth trivially. The
	// victims and their Byzantine channels are found from the Byzantine
	// side: one record per (victim, channel) pair, grouped by victim with
	// a counting sort. b's victims are the honest nodes of its k-ball,
	// counted by a first BFS from b. After the prefix sum end[v] is where
	// v's records start; the fill advances it past them.
	n := w.N()
	k, d := w.Net.K, w.Net.Params.D
	end := resetSlice(w.exchEnd, n+1)
	w.exchEnd = end
	// Exchange cost: every uncrashed node ships its adjacency list to all
	// G-neighbors (constant rounds, constant-ID messages: Remark 3). A
	// node's G-neighbors are its k-ball less itself, so the honest nodes
	// send S less the Byzantine nodes' balls.
	sent := w.Net.S()
	for _, b := range w.byzList {
		ball, _ := graph.BallWith(w.exchBFS, int(b), k)
		sent -= len(ball) - 1
		for _, v := range ball {
			if !w.Byz[v] {
				end[v+1]++
			}
		}
	}
	w.counters.CountMessages(sent, (d+1)*64)
	w.counters.CountRound()

	if len(w.byzList) == 0 {
		return
	}
	for v := 1; v <= n; v++ {
		end[v] += end[v-1]
	}
	total := int(end[n])
	recs := resetSlice(w.exchRecs, total)
	keys := resetSlice(w.exchKeys, total*k)
	w.exchRecs, w.exchKeys = recs, keys

	// The fill runs one k-ball BFS per Byzantine node b and records, for
	// every honest v in the ball, v's distance to b and v's key for b:
	// the least sequence of H-row indices over shortest v→b paths. A
	// greedy descent along b's distance field finds it, taking the first
	// entry of each row that steps one closer to b.
	hOff, hAdj := w.hOff, w.hAdj
	for _, b := range w.byzList {
		ball, dist := graph.BallWith(w.exchBFS, int(b), k)
		for _, v := range ball {
			if w.Byz[v] {
				continue
			}
			at := int(end[v])
			end[v]++
			dv := dist[v]
			key := keys[at*k : at*k+int(dv)]
			x := v
			for i := range key {
				want := dv - int32(i) - 1
				for j, y := range hAdj[hOff[x]:hOff[x+1]] {
					if dist[y] == want {
						key[i], x = int32(j), y
						break
					}
				}
			}
			recs[at] = exchRec{node: b, dist: dv, key: at * k}
		}
	}

	lo := int32(0)
	for v := 0; v < n; v++ {
		if hi := end[v]; hi > lo {
			w.exchangeAtVictim(v, recs[lo:hi], keys)
			lo = hi
		}
	}
}

// exchRec is one Byzantine channel of a victim: the Byzantine node, its
// H-distance from the victim, and where the victim's key for it starts in
// the key slab (dist entries).
type exchRec struct {
	node, dist int32
	key        int
}

// claim is one adjacency list a Byzantine node reported to the current
// victim.
type claim struct {
	node int32
	adj  []int32
}

// exchangeAtVictim asks v's Byzantine channels for their claims, builds v's
// believed ball, and applies the crash rule.
func (w *World) exchangeAtVictim(v int, recs []exchRec, keys []int32) {
	// Sorting by (distance, key) asks the channels in the order a BFS
	// from v meets them (DESIGN.md §1): stateful adversaries draw their
	// claims from a stream.
	if len(recs) > 1 {
		slices.SortFunc(recs, func(a, b exchRec) int {
			if a.dist != b.dist {
				return int(a.dist - b.dist)
			}
			kb := keys[b.key : b.key+int(b.dist)]
			for i, x := range keys[a.key : a.key+int(a.dist)] {
				if x != kb[i] {
					return int(x - kb[i])
				}
			}
			return 0
		})
	}
	claims := w.exchClaims[:0]
	for _, r := range recs {
		if adj := w.adv.ClaimHNeighbors(w, int(r.node), v); adj != nil {
			claims = append(claims, claim{node: r.node, adj: adj})
		}
	}
	w.exchClaims = claims
	if len(claims) == 0 {
		return // everyone reported truthfully; reconstruction is exact
	}

	if !w.claimedBallConsistent(v, claims) {
		w.crashed[v] = true
		return
	}
	view := make(map[int32][]int32, len(claims))
	for _, c := range claims {
		view[c.node] = c.adj
	}
	w.views[v] = view
}

// claimedBallConsistent applies the crash rule to the claims v heard: in
// v's BFS over the claimed topology to radius k, every adjacency list it
// expands must pass the degree, range and endpoint checks, and every
// node it reaches must lie in v's channel set. The rule is a
// conjunction, so the order of its checks changes no outcome.
//
// A non-claimer's row is H's own, so it can fail only on an edge to a
// claimer, whose end may deny it. The first pass therefore reads a
// depth-(k−1) row only for a claimer or a claimer's H-neighbour, and
// does not enqueue depth k, which only the phantom check reads. That
// check matters only if the BFS crossed an edge between two claimers.
// Without one, every edge it crossed is an H edge (a claimer's edge to
// a non-claimer passed the endpoint check against that node's H row),
// so every node it reached lies in v's k-ball and none can be a
// phantom. With one, a second pass reaches the whole claimed ball for
// the check.
func (w *World) claimedBallConsistent(v int, claims []claim) bool {
	ok, claimerEdge := w.claimedBFS(v, claims, false)
	if !ok || !claimerEdge {
		return ok
	}
	w.claimedBFS(v, claims, true)
	// v has a G-channel to every node of its k-ball in H, and to no other
	// node: a reached node outside the ball is a phantom, claimed within
	// distance k with no channel to confirm it.
	_, dist := graph.BallWith(w.exchBFS, v, w.Net.K)
	for _, y := range w.exchQueue {
		if dist[y] == graph.Unreached {
			return false
		}
	}
	return true
}

// claimedBFS runs v's BFS over the claimed topology with the degree,
// range and endpoint checks, and reports whether they all passed and
// whether it crossed an edge between two claimers. With wholeBall unset
// it skips the depth-(k−1) rows of nodes with no claimer in or beside
// them and does not enqueue depth k; set, it leaves every reached node,
// to depth k, in exchQueue. Claimers are stamped in exchClaimEpoch
// (their claim index in exchClaimIdx), their H-neighbours in exchNear
// and reached nodes in exchSeen, all with a fresh exchEpoch, so no
// per-victim state needs clearing.
func (w *World) claimedBFS(v int, claims []claim, wholeBall bool) (ok, claimerEdge bool) {
	n := w.N()
	if len(w.exchSeen) != n {
		w.exchSeen = make([]int32, n)
		w.exchNear = make([]int32, n)
		w.exchClaimEpoch = make([]int32, n)
		w.exchClaimIdx = make([]int32, n)
		w.exchEpoch = 0
	}
	if w.exchEpoch == math.MaxInt32 {
		clear(w.exchSeen)
		clear(w.exchNear)
		clear(w.exchClaimEpoch)
		w.exchEpoch = 0
	}
	w.exchEpoch++
	ep := w.exchEpoch
	hOff, hAdj := w.hOff, w.hAdj
	claimed, near := w.exchClaimEpoch, w.exchNear
	for i, c := range claims {
		claimed[c.node] = ep
		w.exchClaimIdx[c.node] = int32(i)
		for _, y := range hAdj[hOff[c.node]:hOff[c.node+1]] {
			near[y] = ep
		}
	}
	adjOf := func(x int32) []int32 {
		if claimed[x] == ep {
			return claims[w.exchClaimIdx[x]].adj
		}
		return hAdj[hOff[x]:hOff[x+1]]
	}

	k, d := w.Net.K, w.Net.Params.D
	seen := w.exchSeen
	seen[v] = ep
	queue := append(w.exchQueue[:0], int32(v))
	ok = true
	// The queue holds one BFS layer after another; layerEnd marks where
	// the layer at distance depth ends. Nodes at distance k are not
	// expanded.
	depth, layerEnd := 0, 1
bfs:
	for head := 0; head < len(queue); head++ {
		if head == layerEnd {
			depth, layerEnd = depth+1, len(queue)
		}
		if depth >= k {
			break
		}
		x := queue[head]
		adj := adjOf(x)
		if len(adj) != d {
			// A node whose claimed degree differs from d cannot be a node
			// of the d-regular H.
			ok = false
			break
		}
		xClaimed := claimed[x] == ep
		grow := depth < k-1 || wholeBall
		if !grow && !xClaimed && near[x] != ep {
			continue // an H row with no claimer on it: nothing to check
		}
		for _, y := range adj {
			if y < 0 || int(y) >= n {
				ok = false // names no node at all
				break bfs
			}
			// Between two truthful reporters H's symmetry already
			// confirms the edge; only a claimer's edges need asking.
			yClaimed := claimed[y] == ep
			if (xClaimed || yClaimed) && !slices.Contains(adjOf(y), x) {
				ok = false // the endpoint denies the edge
				break bfs
			}
			claimerEdge = claimerEdge || (xClaimed && yClaimed)
			if grow && seen[y] != ep {
				seen[y] = ep
				queue = append(queue, y)
			}
		}
	}
	w.exchQueue = queue
	return ok, claimerEdge
}
