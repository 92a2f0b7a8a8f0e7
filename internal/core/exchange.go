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
	// Exchange cost: every uncrashed node ships its adjacency list to all
	// G-neighbors (constant rounds, constant-ID messages: Remark 3).
	n := w.N()
	d := w.Net.Params.D
	for v := 0; v < n; v++ {
		if !w.Byz[v] {
			w.counters.CountMessages(w.Net.G.Degree(v), (d+1)*64)
		}
	}
	w.counters.CountRound()

	if len(w.byzList) == 0 {
		return
	}

	// Only nodes with a Byzantine node inside their radius-k H-ball can
	// receive a lie; everyone else reconstructs the truth trivially.
	// Scratch comes from the arena: the BFS workspace survives across
	// runs on the same network, and the candidate vector is zeroed by
	// Reset.
	scratch := w.exchBFS
	candidate := w.exchCand
	for _, b := range w.byzList {
		nodes, _ := graph.BallWith(scratch, int(b), w.Net.K)
		for _, v := range nodes {
			if !w.Byz[v] {
				candidate[v] = true
			}
		}
	}

	for v := 0; v < n; v++ {
		if !candidate[v] {
			continue
		}
		w.exchangeAtVictim(v, scratch)
	}
}

// claim is one adjacency list a Byzantine node reported to the current
// victim.
type claim struct {
	node int32
	adj  []int32
}

// exchangeAtVictim collects the claims made to v, builds v's believed ball,
// and applies the crash rule.
func (w *World) exchangeAtVictim(v int, scratch *graph.BFS) {
	// v's channel set is its ground-truth k-ball (the adversary cannot
	// fabricate wires): y is a channel iff chanDist[y] != graph.Unreached.
	// scratch is not reused below, so chanDist stays valid.
	ballNodes, chanDist := graph.BallWith(scratch, v, w.Net.K)

	// Collect the claims, asking v's Byzantine channels in BFS order:
	// stateful adversaries draw their claims from a stream.
	claims := w.exchClaims[:0]
	for _, x := range ballNodes {
		if !w.Byz[x] {
			continue
		}
		if adj := w.adv.ClaimHNeighbors(w, int(x), v); adj != nil {
			claims = append(claims, claim{node: x, adj: adj})
		}
	}
	w.exchClaims = claims
	if len(claims) == 0 {
		return // everyone reported truthfully; reconstruction is exact
	}

	if !w.claimedBallConsistent(v, chanDist, claims) {
		w.crashed[v] = true
		return
	}
	view := make(map[int32][]int32, len(claims))
	for _, c := range claims {
		view[c.node] = c.adj
	}
	w.views[v] = view
}

// claimedBallConsistent runs v's BFS over the claimed topology to radius
// k and reports whether every adjacency list it expands passes the crash
// rule. Claimers are stamped in exchClaimEpoch (their claim index in
// exchClaimIdx) and reached nodes in exchSeen, both with the current
// exchEpoch, so no per-victim state needs clearing.
func (w *World) claimedBallConsistent(v int, chanDist []int32, claims []claim) bool {
	n := w.N()
	if len(w.exchSeen) != n {
		w.exchSeen = make([]int32, n)
		w.exchClaimEpoch = make([]int32, n)
		w.exchClaimIdx = make([]int32, n)
		w.exchEpoch = 0
	}
	if w.exchEpoch == math.MaxInt32 {
		clear(w.exchSeen)
		clear(w.exchClaimEpoch)
		w.exchEpoch = 0
	}
	w.exchEpoch++
	ep := w.exchEpoch
	for i, c := range claims {
		w.exchClaimEpoch[c.node] = ep
		w.exchClaimIdx[c.node] = int32(i)
	}
	adjOf := func(x int32) []int32 {
		if w.exchClaimEpoch[x] == ep {
			return claims[w.exchClaimIdx[x]].adj
		}
		return w.topo.hAdj[w.topo.hOff[x]:w.topo.hOff[x+1]]
	}

	k, d := w.Net.K, w.Net.Params.D
	seen := w.exchSeen
	seen[v] = ep
	queue := append(w.exchQueue[:0], int32(v))
	ok := true
	// The queue holds one BFS layer after another; layerEnd marks where
	// the layer at distance depth ends. Nodes at distance k are reached
	// (and checked as endpoints) but not expanded.
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
		for _, y := range adj {
			if y < 0 || int(y) >= n || chanDist[y] == graph.Unreached {
				ok = false // phantom: claimed within distance k, no channel
				break bfs
			}
			if !slices.Contains(adjOf(y), x) {
				ok = false // the endpoint denies the edge
				break bfs
			}
			if seen[y] != ep {
				seen[y] = ep
				queue = append(queue, y)
			}
		}
	}
	w.exchQueue = queue
	return ok
}
