package core

// frontier.go is the quiescence-aware round scheduler. The protocol's
// flooding is a repeated max-flood: within an i-round subphase a node's
// held color only changes when a strictly larger color arrives, so once
// the flood has propagated (typically within the graph diameter, long
// before round i in late phases) the dense loop re-scans every CSR edge of
// every node for nothing. The frontier engine steps node v in round t iff
// its round-t computation could differ from "nothing happened":
//
//   - a neighbor's held value changed in round t−1 (v's inputs changed);
//   - v's own held value changed in round t−1 (candidates are compared
//     against it, and sub-held receptions become unverified echoes);
//   - a Byzantine in-slot of v latched a different send this round;
//   - v saw an improvement candidate last round (hasCand): failed
//     candidates are re-verified every round by the dense loop, paying
//     per-round attestation messages with round-dependent outcomes, so a
//     node with a standing candidate can never be skipped;
//   - t == 1 (every node's held was rewritten by color generation) or
//     t == i (every active node evaluates the continue criterion from
//     its k_i, so the final round sweeps everything).
//
// Everything else is provably quiescent, and the engine keeps the
// bookkeeping the dense loop would have produced for those nodes at O(1)
// per round — not O(skipped) — while staying byte-identical in Result:
//
//   - the held log takes no per-node writes: after a round's dispatch
//     the back buffer holds every node's value after that round (a
//     skipped node's stale entry equals its held value, see below, and
//     a crashed node holds 0), so the round's log row is one copy of it;
//   - flooding-cost counters are maintained as an incremental aggregate:
//     when a node goes quiet its degree × messageBits(held) contribution
//     is added, when it is re-marked the same contribution is removed,
//     and each frontier round folds the aggregate into the totals in one
//     call. MaxMessageBits needs no update: a skipped node's (degree,
//     held) pair was already counted by a stepped round — held changes
//     always force a step in the following round — so the running
//     maximum already covers it.
//
// A run with message loss armed sweeps every node in every round
// (runSubphase): loss coins re-randomize each round, so every node's
// received set, dropped count and k_t can change with unchanged inputs,
// and no round is quiet. Replaying the coins of the skipped nodes walked
// their rows anyway and measured no faster than the dense loop.
//
// Skipped nodes never write the exchange board, which is sound because a
// node only enters the skipped set when its value was unchanged in the
// previous round — so the stale back-buffer entry already equals the
// current one (see buildFrontier).
//
// The worklist is compacted (pool.ForChunks runs over dense indices into
// fr.list, not 0..n), membership is deduplicated by epoch stamps so no
// per-round clearing is needed, and every slice lives in World scratch:
// the round loop stays at 0 allocs/op with the frontier enabled
// (TestRoundLoopZeroAlloc).

// frontier holds the scheduler's reusable per-run state.
type frontier struct {
	// stamp[v] == epoch marks v as a member of list.
	stamp []int64
	epoch int64
	// list is the worklist for the upcoming (or currently executing)
	// round; scratch is the ping-pong backing for the next build.
	list    []int32
	scratch []int32
	// nextFull declares the upcoming round a full sweep without a
	// worklist: buildFrontier sets it when so much of the network changed
	// that a worklist would cover ~everything, making the marking pass
	// pure overhead. This keeps the frontier engine within noise of the
	// dense loop on saturated rounds (the propagation regime before the
	// flood stabilizes) while preserving the multi-x win once it does.
	nextFull bool

	// The quiet flood-cost aggregate: quiet[v] marks nodes currently
	// accounted in quietMsgs/quietBits (honest, uncrashed, held > 0, not
	// in the worklist). Maintained at membership transitions and rebuilt
	// from scratch after full rounds.
	quiet     []bool
	quietMsgs int64
	quietBits int64
}

// reset rewinds the scheduler for a run on an n-node network.
func (f *frontier) reset(n int) {
	f.stamp = resetSlice(f.stamp, n)
	f.epoch = 0
	if cap(f.list) < n {
		f.list = make([]int32, 0, n)
	}
	if cap(f.scratch) < n {
		f.scratch = make([]int32, 0, n)
	}
	f.list = f.list[:0]
	f.scratch = f.scratch[:0]
	f.nextFull = false
	f.quiet = resetSlice(f.quiet, n)
	f.quietMsgs, f.quietBits = 0, 0
}

// resetQuiet zeroes the flood-cost aggregate (subphase starts: every node
// is about to be stepped by the full round-1 sweep).
func (f *frontier) resetQuiet() {
	// quiet[] flags may be stale, but nothing consults them until the
	// next buildFrontier, whose post-full-round rebuild overwrites them.
	f.quietMsgs, f.quietBits = 0, 0
}

// mark adds v to the current worklist if it is not already a member,
// removing it from the quiet aggregate if it was accounted there. The
// serial latch loop also calls it before dispatch, for the receiver of a
// Byzantine send slot that latched a different value.
func (w *World) mark(v int32) {
	f := &w.fr
	if f.stamp[v] == f.epoch {
		return
	}
	f.stamp[v] = f.epoch
	f.list = append(f.list, v)
	if f.quiet[v] {
		f.quiet[v] = false
		deg := int64(w.hOff[v+1] - w.hOff[v])
		f.quietMsgs -= deg
		f.quietBits -= deg * int64(messageBits(w.held.Cur()[v]))
	}
}

// setQuiet accounts held (the value v floods while it sleeps) into the
// quiet aggregate. Callers have established that v is honest, uncrashed,
// and outside the next round's worklist.
func (f *frontier) setQuiet(v int32, deg int32, held int64) {
	if held <= 0 {
		return // nothing flooded, nothing to account
	}
	f.quiet[v] = true
	f.quietMsgs += int64(deg)
	f.quietBits += int64(deg) * int64(messageBits(held))
}

// buildFrontier computes the round-(t+1) worklist from the round-t stepped
// set (the full node range when full is set, fr.list otherwise). It runs
// after the round's stepNode calls and before the exchange Swap, so
// next[] holds the new values and cur[] the old ones.
//
// For every stepped node whose value changed, the node itself and all its
// H-neighbors are marked; a node with a standing improvement candidate
// re-marks itself. The self-mark on change is also what makes skipping
// sound: a node enters the skipped set only after a round in which it
// wrote next[v] == cur[v] (or was already skipped), so the stale
// back-buffer entry it stops refreshing is guaranteed equal to its
// current value.
func (w *World) buildFrontier(full bool) {
	f := &w.fr
	cur := w.held.Cur()
	next := w.held.Next()
	n := w.N()
	hOff, hAdj := w.hOff, w.hAdj

	// Saturation bail: count changes first, and when at least a quarter
	// of the network changed — the propagation regime, where the marked
	// neighborhoods would cover ~everything — declare the next round full
	// instead of paying the marking pass for a worklist of size ~n. The
	// quiet aggregate is left stale; the rebuild after that full round
	// recomputes it from scratch.
	changed := 0
	if full {
		for v := 0; v < n; v++ {
			if next[v] != cur[v] {
				changed++
			}
		}
	} else {
		for _, v := range f.list {
			if next[v] != cur[v] {
				changed++
			}
		}
	}
	if changed*4 >= n {
		f.nextFull = true
		return
	}

	// Swap the ping-pong backing and open a new epoch for the next round.
	f.list, f.scratch = f.scratch[:0], f.list
	f.epoch++

	markNode := func(v int32) {
		if w.hasCand[v] {
			w.mark(v)
		}
		if next[v] != cur[v] {
			w.mark(v)
			for e := hOff[v]; e < hOff[v+1]; e++ {
				w.mark(hAdj[e])
			}
		}
	}
	if full {
		for v := 0; v < n; v++ {
			markNode(int32(v))
		}
	} else {
		for _, v := range f.scratch { // scratch now holds the just-executed round's list
			markNode(v)
		}
	}
	// Fold membership transitions into the quiet flood-cost aggregate.
	if full {
		// Everyone was stepped (and self-accounted); rebuild the quiet
		// set as the unmarked eligible nodes. This pass also clears any
		// flags left stale by a saturation bail.
		f.quietMsgs, f.quietBits = 0, 0
		for v := 0; v < n; v++ {
			f.quiet[v] = false
			if f.stamp[v] != f.epoch && !w.Byz[v] && !w.crashed[v] {
				f.setQuiet(int32(v), hOff[v+1]-hOff[v], next[v])
			}
		}
	} else {
		// Incremental: mark() already removed newly-dirty sleepers; add
		// the round-t stepped nodes that were not re-marked.
		for _, v := range f.scratch {
			if f.stamp[v] != f.epoch && !w.Byz[v] && !w.crashed[v] {
				f.setQuiet(v, hOff[v+1]-hOff[v], next[v])
			}
		}
	}
}
