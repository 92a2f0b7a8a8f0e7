package core

import "math/bits"

// batch_kernel.go holds the batched engine's hot paths: the per-node
// multi-lane step kernel (one CSR row traversal services every stepped
// lane of the node) and the union-frontier scheduler (per-node lane-mask
// generalizations of mark/buildFrontier/advanceLogWatermark/
// quietLossPass from frontier.go). Each path mirrors its scalar
// counterpart statement-for-statement per lane; see batch.go for the
// byte-identity argument.

// stepLanes advances node v through round t of an i-round subphase for
// every lane in mask (already intersected with the live set). merge is
// set by quiet-loss promotion, which steps a single additional lane of a
// node after the parallel dispatch: the round's stepped/changed masks
// are extended instead of overwritten. Runs concurrently across nodes;
// all shared writes are per-node or folded through s.acc.
func (bw *BatchWorld) stepLanes(v, t, i int, verify bool, mask uint64, merge bool, s *batchScratch) {
	if merge {
		bw.steppedM[v] |= mask
	} else {
		bw.steppedM[v] = mask
		bw.changedM[v] = 0
	}
	if mask == 0 {
		bw.hasCandM[v] = 0
		return
	}
	B := bw.nl
	base := v * B
	topo := bw.topo
	hAdj := topo.hAdj
	begin, end := topo.hOff[v], topo.hOff[v+1]
	deg := int(end - begin)
	cur, next := bw.cur, bw.next
	logRow := bw.blog[t]
	origMask := mask
	var changed uint64
	acc := &s.acc
	acc.used |= mask

	// Crashed lanes: the node is silent and holds nothing (mirrors the
	// scalar early return; cur is already 0 for a crashed pair, the
	// compare keeps changedM exactly the next!=cur comparison the scalar
	// frontier performs).
	if cm := mask & bw.crashedM[v]; cm != 0 {
		for m := cm; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if cur[base+l] != 0 {
				changed |= uint64(1) << uint(l)
			}
			next[base+l] = 0
		}
		mask &^= cm
	}

	// Byzantine lanes: bookkeeping max of everything heard (scalar
	// Byzantine branch; no flood cost, no k_t updates, no drop counting).
	if bm := mask & bw.byzM[v]; bm != 0 {
		for m := bm; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			w := bw.lanes[l]
			heldv := cur[base+l]
			best := heldv
			lossy := w.plan.lossThresh != 0
			for e := begin; e < end; e++ {
				nb := int(hAdj[e])
				if bw.crashedM[nb]&(uint64(1)<<uint(l)) == 0 {
					if c := cur[nb*B+l]; c > best {
						if lossy && w.dropRecv(e) {
							continue
						}
						best = c
					}
				}
			}
			next[base+l] = best
			logRow[base+l] = best
			if best != heldv {
				changed |= uint64(1) << uint(l)
				if !verify {
					bw.bumpPair(base+l, t, heldv)
				}
			}
		}
		mask &^= bm
	}

	// Honest lanes: flood cost, then one edge traversal delivering to all
	// lanes — the lane-major cur layout turns each neighbor read into one
	// or two cache lines covering the whole batch.
	hon := mask
	if hon != 0 {
		lossyHon := hon & bw.lossyM
		for m := hon; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			h := cur[base+l]
			s.held[l] = h
			s.kt[l] = 0
			if lossyHon != 0 {
				s.nd[l] = 0
			}
			if h > 0 {
				acc.tally[l].add(deg, messageBits(h))
			}
		}
		// Touch-ahead: the reception loop's neighbor rows are random
		// accesses in a board larger than L2; issuing one load per row
		// cache line up front lets the misses overlap instead of
		// serializing behind each row's consumption. The sink store keeps
		// the loads live.
		var pf int64
		for e := begin; e < end; e++ {
			nbase := int(hAdj[e]) * B
			pf += cur[nbase] + cur[nbase+B-1]
		}
		s.pfSink = pf
		var candM uint64
		crHon := hon & bw.crashedL
		if !verify && lossyHon == 0 && crHon == 0 && bw.byzRowM[v]&hon == 0 {
			// Whole-row kernel: every reception of every stepped lane is
			// fast-path (reliable links, honest live senders — the
			// steady-state bulk of all nodes; Byzantine in-rows are
			// precomputed in byzRowM), so the scan collapses to a fused
			// running max over the neighbors' contiguous lane rows, two
			// rows per pass to halve the kt read-modify-write traffic.
			e := begin
			for ; e+2 <= end; e += 2 {
				r1 := cur[int(hAdj[e])*B:][:B]
				r2 := cur[int(hAdj[e+1])*B:][:B]
				for l, c := range r1 {
					s.kt[l] = max(s.kt[l], max(c, r2[l]))
				}
			}
			if e < end {
				for l, c := range cur[int(hAdj[e])*B:][:B] {
					s.kt[l] = max(s.kt[l], c)
				}
			}
			begin = end // skip the per-edge scan below
		}
		for e := begin; e < end; e++ {
			nb := int(hAdj[e])
			nbase := nb * B
			bm := bw.byzEdgeM[e] & hon
			var ncr uint64
			if crHon != 0 {
				// Only pay the random crashed-sender load when some hon
				// lane has a crashed node at all (phase-constant).
				ncr = bw.crashedM[nb] & hon
			}
			if bm == 0 && ncr == 0 && lossyHon == 0 {
				// Fast path: reliable links, honest live sender in every
				// lane — the steady-state bulk of all receptions.
				if !verify {
					// Without verification every delivered reception folds
					// into one running maximum (candidates are just
					// receptions above held, recovered after the loop as
					// kt > held), so the hot loop is a branch-free max
					// over the neighbor's contiguous lane row. Lanes
					// outside hon accumulate garbage in kt; only hon
					// lanes are read back.
					for l, c := range cur[nbase : nbase+B] {
						s.kt[l] = max(s.kt[l], c)
					}
					continue
				}
				for m := hon; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					c := cur[nbase+l]
					if c == 0 {
						continue
					}
					if c > s.held[l] {
						candM |= uint64(1) << uint(l)
					} else if c > s.kt[l] {
						s.kt[l] = c
					}
				}
				continue
			}
			for m := hon; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				bit := uint64(1) << uint(l)
				var c int64
				if bm&bit != 0 {
					w := bw.lanes[l]
					c = w.byzSends[w.byzIn[e]]
				} else if ncr&bit == 0 {
					c = cur[nbase+l]
				}
				if c == 0 {
					continue
				}
				if lossyHon&bit != 0 && bw.lanes[l].dropRecv(e) {
					s.nd[l]++
					continue
				}
				if c > s.held[l] {
					candM |= bit
					if !verify && c > s.kt[l] {
						s.kt[l] = c
					}
				} else if c > s.kt[l] {
					s.kt[l] = c
				}
			}
		}
		if !verify {
			// Recover the candidate mask from the running maxima (the
			// branch-free fast path records no per-reception candidates):
			// a delivered reception above held is exactly kt > held.
			candM = 0
			for m := hon; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				if s.kt[l] > s.held[l] {
					candM |= uint64(1) << uint(l)
				}
			}
		}

		// Lanes that saw improvement candidates under verification rerun
		// the scalar reception loop verbatim — bounded candidate buffer,
		// best-first chain-attestation, drop re-counting — discarding the
		// optimistic pass's tallies for that lane. Without verification a
		// candidate is just the running maximum and the optimistic pass
		// already holds the answer.
		if verify && candM != 0 {
			for m := candM; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				bit := uint64(1) << uint(l)
				w := bw.lanes[l]
				heldv := s.held[l]
				lossy := lossyHon&bit != 0
				var kt, nd int64
				cands := &s.cands
				cands.n = 0
				for e := begin; e < end; e++ {
					nb := int(hAdj[e])
					var c int64
					if bw.byzEdgeM[e]&bit != 0 {
						c = w.byzSends[w.byzIn[e]]
					} else if bw.crashedM[nb]&bit == 0 {
						c = cur[nb*B+l]
					}
					if c == 0 {
						continue
					}
					if lossy && w.dropRecv(e) {
						nd++
						continue
					}
					if c <= heldv {
						if c > kt {
							kt = c
						}
						continue
					}
					if cands.insert(c, hAdj[e]) {
						w.candOverflows.Add(1)
					}
				}
				newHeld := heldv
				for {
					best := -1
					var bc int64
					for q := 0; q < cands.n; q++ {
						if cands.vals[q] > bc {
							bc, best = cands.vals[q], q
						}
					}
					if best < 0 {
						break
					}
					cands.vals[best] = 0
					if !w.verifyColor(v, cands.from[best], bc, t, &acc.tally[l]) {
						continue
					}
					if bc > kt {
						kt = bc
					}
					newHeld = bc
					break
				}
				s.kt[l] = kt
				s.nd[l] = nd
				s.nh[l] = newHeld
			}
		}

		for m := hon; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			bit := uint64(1) << uint(l)
			var nh int64
			switch {
			case candM&bit == 0:
				nh = s.held[l]
			case verify:
				nh = s.nh[l]
			default:
				nh = s.kt[l] // max delivered reception, > held
			}
			next[base+l] = nh
			logRow[base+l] = nh
			if nh != s.held[l] {
				changed |= bit
				if !verify {
					bw.bumpPair(base+l, t, s.held[l])
				}
			}
			if t < i {
				if s.kt[l] > bw.maxEarly[base+l] {
					bw.maxEarly[base+l] = s.kt[l]
				}
			} else {
				bw.kFinal[base+l] = s.kt[l]
			}
			if lossyHon != 0 {
				acc.drops[l] += s.nd[l]
			}
		}
		// A standing candidate (delivered reception above held) forces a
		// re-step next round, verified or not — scalar hasCand semantics.
		bw.hasCandM[v] = (bw.hasCandM[v] &^ origMask) | candM
	} else {
		bw.hasCandM[v] &^= origMask
	}

	if merge {
		bw.changedM[v] |= changed
	} else {
		bw.changedM[v] = changed
	}
}

// markBits adds the lanes in m to node v's upcoming-round worklist mask,
// pulling newly marked pairs out of the quiet aggregate (the batched
// World.mark). Serial contexts only: the Byzantine latch loop, the
// frontier build, and quiet-loss promotion.
func (bw *BatchWorld) markBits(v int32, m uint64) {
	if bw.fstamp[v] != bw.fepoch {
		bw.fstamp[v] = bw.fepoch
		bw.stepM[v] = 0
		bw.flist = append(bw.flist, v)
	}
	add := m &^ bw.stepM[v]
	if add == 0 {
		return
	}
	bw.stepM[v] |= add
	if rm := add & bw.quietM[v]; rm != 0 {
		bw.quietM[v] &^= rm
		deg := int64(bw.topo.hOff[v+1] - bw.topo.hOff[v])
		base := int(v) * bw.nl
		for q := rm; q != 0; q &= q - 1 {
			l := bits.TrailingZeros64(q)
			bw.quietMsgs[l] -= deg
			bw.quietBits[l] -= deg * int64(messageBits(bw.cur[base+l]))
		}
	}
}

// promote pulls (v, l) into the current round's stepped set from the
// quiet-loss pass (the batched mark-for-promotion): out of the quiet
// aggregate, into the current worklist so the frontier build and
// watermark passes see it. A node not yet in the list gets its
// per-round masks initialized — the parallel dispatch never visited it.
func (bw *BatchWorld) promote(v, l int) {
	if bw.fstamp[v] != bw.fepoch {
		bw.fstamp[v] = bw.fepoch
		bw.stepM[v] = 0
		bw.steppedM[v] = 0
		bw.changedM[v] = 0
		bw.flist = append(bw.flist, int32(v))
	}
	bit := uint64(1) << uint(l)
	bw.stepM[v] |= bit
	if bw.quietM[v]&bit != 0 {
		bw.quietM[v] &^= bit
		deg := int64(bw.topo.hOff[v+1] - bw.topo.hOff[v])
		bw.quietMsgs[l] -= deg
		bw.quietBits[l] -= deg * int64(messageBits(bw.cur[v*bw.nl+l]))
	}
}

// buildFrontierBatch computes the next round's union worklist from the
// executed round's stepped masks: for every stepped (v, l) whose value
// changed, v and its H-neighbors are marked in lane l — one markBits
// call per edge covers every changed lane at once — and a standing
// candidate re-marks its own pair. Quiet-aggregate membership is then
// folded exactly as the scalar build: full rounds rebuild it from
// scratch, frontier rounds re-add the stepped pairs that were not
// re-marked.
func (bw *BatchWorld) buildFrontierBatch(full bool) {
	n, live := bw.n, bw.liveM
	hOff, hAdj := bw.topo.hOff, bw.topo.hAdj
	next := bw.next

	// Saturation bail (the scalar buildFrontier rule, on the union): count
	// the nodes with a changed lane first, and when at least a quarter of
	// the network changed — the propagation regime, where the marked
	// neighborhoods would cover ~everything — declare the next round full
	// instead of paying the marking pass for a worklist of size ~n. The
	// quiet aggregates are left stale; the rebuild after that full round
	// recomputes them from scratch.
	changedNodes := 0
	if full {
		for v := 0; v < n; v++ {
			if bw.changedM[v]&live != 0 {
				changedNodes++
			}
		}
	} else {
		for _, v := range bw.flist {
			if bw.changedM[v]&live != 0 {
				changedNodes++
			}
		}
	}
	if changedNodes*4 >= n {
		bw.nextFull = true
		return
	}

	bw.flist, bw.fscratch = bw.fscratch[:0], bw.flist
	bw.fepoch++

	if full {
		for v := 0; v < n; v++ {
			bw.markFrom(int32(v), hOff, hAdj)
		}
	} else {
		for _, v := range bw.fscratch {
			bw.markFrom(v, hOff, hAdj)
		}
	}
	if lm := bw.lossyM & live; lm != 0 {
		// Loss coins re-randomize every round: Byzantine bookkeeping in
		// lossy lanes can change with unchanged inputs, so those pairs
		// are always stepped (honest skipped pairs are covered by the
		// lazy quiet-loss pass instead).
		for q := lm; q != 0; q &= q - 1 {
			l := bits.TrailingZeros64(q)
			for _, b := range bw.lanes[l].byzList {
				bw.markBits(b, uint64(1)<<uint(l))
			}
		}
	}

	if full {
		for l := range bw.quietMsgs {
			bw.quietMsgs[l], bw.quietBits[l] = 0, 0
		}
		for v := 0; v < n; v++ {
			bw.quietM[v] = 0
			elig := live &^ bw.byzM[v] &^ bw.crashedM[v]
			if bw.fstamp[v] == bw.fepoch {
				elig &^= bw.stepM[v]
			}
			if elig == 0 {
				continue
			}
			base := v * bw.nl
			deg := int64(hOff[v+1] - hOff[v])
			for q := elig; q != 0; q &= q - 1 {
				l := bits.TrailingZeros64(q)
				if h := next[base+l]; h > 0 {
					bw.quietM[v] |= uint64(1) << uint(l)
					bw.quietMsgs[l] += deg
					bw.quietBits[l] += deg * int64(messageBits(h))
				}
			}
		}
	} else {
		for _, v := range bw.fscratch {
			addM := bw.steppedM[v] & live &^ bw.byzM[v] &^ bw.crashedM[v]
			if bw.fstamp[v] == bw.fepoch {
				addM &^= bw.stepM[v]
			}
			if addM == 0 {
				continue
			}
			base := int(v) * bw.nl
			deg := int64(hOff[v+1] - hOff[v])
			for q := addM; q != 0; q &= q - 1 {
				l := bits.TrailingZeros64(q)
				if h := next[base+l]; h > 0 {
					bw.quietM[v] |= uint64(1) << uint(l)
					bw.quietMsgs[l] += deg
					bw.quietBits[l] += deg * int64(messageBits(h))
				}
			}
		}
	}
}

// markFrom marks the consequences of node v's executed round: changed
// lanes dirty v and its neighborhood, standing candidates re-mark v.
func (bw *BatchWorld) markFrom(v int32, hOff, hAdj []int32) {
	sm := bw.steppedM[v] & bw.liveM
	if sm == 0 {
		return
	}
	cm := bw.changedM[v] & bw.liveM
	if selfM := (bw.hasCandM[v] | cm) & sm; selfM != 0 {
		bw.markBits(v, selfM)
	}
	if cm != 0 {
		for e := hOff[v]; e < hOff[v+1]; e++ {
			bw.markBits(hAdj[e], cm)
		}
	}
}

// bumpPair advances pair idx's watermark to round t, backfilling the
// slept rounds with the old constant. Called from the kernel's finalize
// on changed pairs (!verify dispatch, where no concurrent logAt reader
// exists) or from the serial advanceLogWatermarkBatch (verify runs).
func (bw *BatchWorld) bumpPair(idx, t int, old int64) {
	for r := int(bw.blogUp[idx]) + 1; r < t; r++ {
		bw.blog[r][idx] = old
	}
	bw.blogUp[idx] = int32(t)
}

// advanceLogWatermarkBatch is the batched advanceLogWatermark: for every
// pair whose value changed in round t, backfill the slept rounds with
// the old constant and move the lane's watermark to t. Verify runs only —
// without verification the kernel fuses the bump into its finalize.
func (bw *BatchWorld) advanceLogWatermarkBatch(t int, full bool) {
	cur := bw.cur
	B := bw.nl
	bump := func(v int32) {
		cm := bw.changedM[v] & bw.liveM
		if cm == 0 {
			return
		}
		base := int(v) * B
		for q := cm; q != 0; q &= q - 1 {
			l := bits.TrailingZeros64(q)
			bw.bumpPair(base+l, t, cur[base+l])
		}
	}
	if full {
		for v := 0; v < bw.n; v++ {
			bump(int32(v))
		}
		return
	}
	for _, v := range bw.flist {
		bump(v)
	}
}

// quietLossPassBatch replays the loss coins for every lossy-lane pair the
// union worklist skipped in round t (1 < t < i), exactly as the scalar
// quietLossPass does per run. Serial, after the parallel dispatch.
func (bw *BatchWorld) quietLossPassBatch(t, i int) {
	n := bw.n
	lossy := bw.lossyM & bw.liveM
	var s batchScratch
	for v := 0; v < n; v++ {
		pend := lossy &^ bw.byzM[v] &^ bw.crashedM[v]
		if bw.fstamp[v] == bw.fepoch {
			pend &^= bw.stepM[v]
		}
		for q := pend; q != 0; q &= q - 1 {
			bw.quietLossLane(v, bits.TrailingZeros64(q), t, i, &s)
		}
	}
	s.acc.fold(bw)
}

// quietLossLane mirrors quietLossNode for one skipped (node, lane) pair:
// replay the coins, count the drops, fold delivered echoes into the k_t
// bookkeeping — and on a delivered reception above the held value,
// promote the pair and run it through the full kernel (whose
// deterministic coin replay reproduces the partial scan, so the local
// tallies are discarded).
func (bw *BatchWorld) quietLossLane(v, l, t, i int, s *batchScratch) {
	w := bw.lanes[l]
	B := bw.nl
	bit := uint64(1) << uint(l)
	cur := bw.cur
	hAdj := bw.topo.hAdj
	begin, end := bw.topo.hOff[v], bw.topo.hOff[v+1]
	held := cur[v*B+l]
	var drops, kt int64
	for e := begin; e < end; e++ {
		nb := int(hAdj[e])
		var c int64
		if bw.byzEdgeM[e]&bit != 0 {
			c = w.byzSends[w.byzIn[e]]
		} else if bw.crashedM[nb]&bit == 0 {
			c = cur[nb*B+l]
		}
		if c == 0 {
			continue
		}
		if w.dropRecv(e) {
			drops++
			continue
		}
		if c > held {
			bw.promote(v, l)
			bw.stepLanes(v, t, i, bw.verify, bit, true, s)
			return
		}
		if c > kt {
			kt = c
		}
	}
	if drops > 0 {
		w.dropped.Add(drops)
	}
	// t < i always holds here (final rounds are full sweeps), so kt feeds
	// the running early maximum, never kFinal.
	if kt > bw.maxEarly[v*B+l] {
		bw.maxEarly[v*B+l] = kt
	}
}
