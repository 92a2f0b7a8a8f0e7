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

// An attested word (World.attested) packs the round's stamp,
// globalRound+1 (so a cleared word matches no round), above
// attestStampShift, the chain's outcome in attestOK, and the search's
// query count in the bits below it. A search that sent more queries than
// attestAskedMask is not stored, and a stamp too wide for the word never
// matches its round.
const (
	attestStampShift = 24
	attestOK         = 1 << (attestStampShift - 1)
	attestAskedMask  = attestOK - 1
)

// verifyColor is the entry point used by the engine. v is the verifier,
// from the sending H-neighbor, c the received color, t the current round;
// the search's messages are charged to acc, the caller's chunk tally.
//
// An honest sender floods one color, cur[from], to all its receivers, and
// a search that queries only honest nodes reads nothing that depends on
// the verifier: honest nodes answer from their logs and are expanded
// along their true H-rows (views hold only Byzantine claimers' lists). So
// its outcome and query count are the same for every receiver of the
// round, and the first receiver stores them in attested[from] for the
// others to charge and reuse. A search that queried a Byzantine node is
// never stored: its answers and expansions depend on the verifier, and
// reusing it would skip Adversary.Attest calls.
func (w *World) verifyColor(v int, from int32, c int64, t int, acc *msgTally) bool {
	// Each query/response pair travels over an L edge: constant IDs plus
	// O(log) payload. Every query of one verification has the same size,
	// so the whole search is charged at once.
	bits := messageBits(c) + 64
	var stamp uint64 // 0: a Byzantine sender, whose search is never stored
	if !w.Byz[from] {
		stamp = uint64(w.globalRound + 1)
		if word := w.attested[from].Load(); word>>attestStampShift == stamp {
			acc.add(2*int(word&attestAskedMask), bits)
			return word&attestOK != 0
		}
	}
	var visited [8]int32
	ok, asked, byz := w.attestChain(v, from, c, t-1, min(t, w.Net.K)-1, visited[:0])
	if stamp != 0 && !byz && asked <= attestAskedMask {
		word := stamp<<attestStampShift | uint64(asked)
		if ok {
			word |= attestOK
		}
		w.attested[from].Store(word)
	}
	acc.add(2*asked, bits)
	return ok
}

// attestChain asks x whether it held a color >= c after round r and, if
// it did and the budget is not exhausted, searches x's believed neighbors
// for the rest of the chain. An honest node answers from log row r (a
// crashed one holds 0 there) and is expanded along its true H-row; only a
// Byzantine node answers through Adversary.Attest and is expanded along
// v's view of it. It returns the outcome, how many attest queries the
// search sent (a round before 0 needs no query, since nothing was held
// then), and whether any of them went to a Byzantine node.
func (w *World) attestChain(v int, x int32, c int64, r int, budget int, path []int32) (ok bool, asked int, byz bool) {
	for _, p := range path {
		if p == x {
			return false, 0, false // simple paths only
		}
	}
	if r < 0 {
		return false, 0, false
	}
	var next []int32
	if w.Byz[x] {
		if !w.adv.Attest(w, int(x), v, c, r) {
			return false, 1, true
		}
		next, byz = w.viewNeighbors(v, x), true
	} else {
		if w.heldLog[r][x] < c {
			return false, 1, false
		}
		next = w.hAdj[w.hOff[x]:w.hOff[x+1]]
	}
	if budget == 0 {
		return true, 1, byz
	}
	path = append(path, x)
	asked = 1
	for _, y := range next {
		found, a, b := w.attestChain(v, y, c, r-1, budget-1, path)
		asked += a
		byz = byz || b
		if found {
			return true, asked, byz
		}
	}
	return false, asked, byz
}
