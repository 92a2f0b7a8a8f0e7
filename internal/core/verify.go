package core

// verify.go implements Algorithm 2 line 15: before accepting a color c
// received from H-neighbor x0 in round t, node v checks with the nodes in
// B(x0, k−1) — all of which are v's direct G-neighbors — that c travelled a
// legitimate path.
//
// Concretely, v accepts iff there is a simple path x0, x1, …, xm in v's
// believed H-topology, m = min(t, k) − 1, where every xs attests to having
// held a color ≥ c at round t−1−s of the current subphase (round 0 means
// "generated such a color"). Honest nodes attest from their held logs;
// Byzantine nodes attest however the adversary likes.
//
// Soundness (Lemma 16 reproduced): colors relayed by honest flooding always
// have such a path (held values are monotone within a subphase, and a fresh
// improvement's first-arrival chain grounds out at a generator within the
// horizon), while a fabricated color at round t ≥ k requires all of
// x0..x_{k−1} to lie — a k-node Byzantine chain in the believed ball, which
// Observation 6 rules out w.h.p. The path must be simple: allowing revisits
// would let two Byzantine nodes simulate an arbitrarily long chain.

// verifyColor is the entry point used by the engine. v is the verifier,
// from the sending H-neighbor, c the received color, t the current round.
func (w *World) verifyColor(v int, from int32, c int64, t int) bool {
	m := t
	if m > w.Net.K {
		m = w.Net.K
	}
	m-- // chain length beyond the sender
	var visited [8]int32
	ok, asked := w.attestChain(v, from, c, t-1, m, visited[:0])
	// Each query/response pair travels over an L edge: constant IDs plus
	// O(log) payload. Every query of one verification has the same size,
	// so the whole search is charged at once.
	w.counters.CountMessages(2*asked, messageBits(c)+64)
	return ok
}

// attest asks node x whether it held a color >= c after round r >= 0.
func (w *World) attest(v int, x int32, c int64, r int) bool {
	if w.Byz[x] {
		return w.adv.Attest(w, int(x), v, c, r)
	}
	if w.crashed[x] {
		return false // crashed nodes answer nothing
	}
	return w.logAt(x, r) >= c
}

// attestChain checks x's attestation for round r and, if the budget is not
// exhausted, searches x's believed neighbors for the rest of the chain. It
// also returns how many attest queries the search sent; a round before 0
// needs no query, since nothing was held then.
func (w *World) attestChain(v int, x int32, c int64, r int, budget int, path []int32) (ok bool, asked int) {
	for _, p := range path {
		if p == x {
			return false, 0 // simple paths only
		}
	}
	if r < 0 {
		return false, 0
	}
	if !w.attest(v, x, c, r) {
		return false, 1
	}
	if budget == 0 {
		return true, 1
	}
	path = append(path, x)
	asked = 1
	for _, y := range w.viewNeighbors(v, x) {
		found, a := w.attestChain(v, y, c, r-1, budget-1, path)
		asked += a
		if found {
			return true, asked
		}
	}
	return false, asked
}
