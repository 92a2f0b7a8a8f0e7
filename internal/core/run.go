package core

import (
	"math"

	"repro/internal/hgraph"
	"repro/internal/sim"
)

// Run executes one full protocol run on the given network. byz marks the
// Byzantine nodes (may be all-false), adv drives them (use
// HonestAdversary{} when byz is empty), and cfg selects the algorithm and
// parameters.
//
// The run proceeds in the paper's global synchronous schedule: phases
// i = 1, 2, …, each of i·α_i subphases, each flooding for exactly i rounds.
// It stops when every honest uncrashed node has decided, or at the
// MaxPhase safety cap (survivors are reported undecided).
//
// Run constructs a fresh arena per call; callers executing many runs
// (sweeps, trial loops) should hold a World and use its Run method,
// which reuses the arena's buffers and worker pool across runs.
func Run(net *hgraph.Network, byz []bool, adv Adversary, cfg Config) (*Result, error) {
	w := NewWorld()
	defer w.Close()
	return w.Run(net, byz, adv, cfg)
}

// Run resets the arena for (net, byz, adv, cfg) and executes the protocol.
func (w *World) Run(net *hgraph.Network, byz []bool, adv Adversary, cfg Config) (*Result, error) {
	if err := w.Reset(net, byz, adv, cfg); err != nil {
		return nil, err
	}
	return w.run()
}

// run executes the protocol on a freshly Reset arena.
func (w *World) run() (*Result, error) {
	w.adv.Init(w)

	if w.Cfg.Algorithm == AlgorithmByzantine {
		w.runExchange()
	}
	w.scheduleFaults()

	for i := 1; i <= w.Cfg.MaxPhase; i++ {
		w.applyFaults(i)
		active := w.activeCount()
		if w.Cfg.RecordPhaseActivity {
			w.activePerPhase = append(w.activePerPhase, active)
		}
		if active == 0 {
			break
		}
		w.runPhase(i)
	}

	return w.buildResult(), nil
}

// runPhase executes phase i for every node in lockstep.
func (w *World) runPhase(i int) {
	n := w.N()
	for v := 0; v < n; v++ {
		w.continueFlag[v] = false
	}
	if w.Cfg.RecordFrontierOccupancy {
		w.occStepped, w.occRounds = 0, 0
		defer func() {
			frac := 1.0
			if w.occRounds > 0 {
				frac = float64(w.occStepped) / (float64(n) * float64(w.occRounds))
			}
			w.occPerPhase = append(w.occPerPhase, frac)
		}()
	}
	// Each subphase's final round evaluates the continue criterion
	// (stepNode), setting continueFlag for the nodes that satisfy it.
	subphases := w.Sched.Subphases(i)
	for j := 1; j <= subphases; j++ {
		w.runSubphase(i, j)
	}
	// Decision (Algorithm 1 lines 20–24).
	for v := 0; v < n; v++ {
		if w.IsActive(v) && !w.continueFlag[v] {
			w.decided[v] = int32(i)
			w.decidedRound[v] = w.globalRound
		}
	}
	if po, ok := w.Cfg.Observer.(PhaseObserver); ok {
		po.PhaseEnd(w)
	}
}

// runSubphase executes one subphase of phase i: color generation followed
// by exactly i flooding rounds. With the frontier engine enabled, rounds
// 1 and i sweep every node (all inputs changed at color generation; in
// the final round every active node evaluates the continue criterion)
// and the rounds between step only the dirty worklist (see frontier.go).
// A run with message loss armed sweeps every node in every round: its
// loss coins change each round, so no node's round is quiet.
func (w *World) runSubphase(i, j int) {
	n := w.N()
	w.Clock = Clock{Phase: i, Subphase: j, Round: 0}

	w.entryRound = 0
	w.growHeldLog(i)
	w.stepTheta = w.Sched.Threshold(i)

	// Color generation (Algorithm 1 lines 10–11). Decided nodes stop
	// generating but keep forwarding; crashed nodes are silent.
	cur := w.held.Cur()
	for v := 0; v < n; v++ {
		var c int64
		if w.IsActive(v) {
			c = int64(w.colorSrc[v].Geometric())
		}
		w.color[v] = c
		cur[v] = c
		w.maxEarly[v] = 0
	}
	copy(w.heldLog[0], cur)
	w.logTop = 0
	w.fr.resetQuiet()
	w.adv.SubphaseStart(w)

	verify := w.Cfg.Algorithm == AlgorithmByzantine
	frontier := w.Cfg.FrontierRounds == FrontierOn && w.plan.lossThresh == 0
	hOff, hAdj := w.hOff, w.hAdj
	for t := 1; t <= i; t++ {
		w.Clock.Round = t
		full := !frontier || t == 1 || t == i || w.fr.nextFull
		w.fr.nextFull = false
		// Latch Byzantine sends for this round (serial, so adversaries
		// need no internal synchronization for Send). Entry e = (b → nb)
		// latches into the slot receivers read for it, byzIn at e's
		// reverse position (byzRev, in this loop's order); parallel edges
		// share a slot and the last Send wins, as with the seed's map.
		// Send is invoked for every edge in every round regardless of
		// scheduling — stateful adversaries must see the identical call
		// sequence — and on frontier rounds a slot that latches a
		// different value dirties its receiver.
		r := 0
		for _, b := range w.byzList {
			for e := hOff[b]; e < hOff[b+1]; e++ {
				slot := w.byzIn[w.byzRev[r]]
				r++
				send := w.adv.Send(w, int(b), int(hAdj[e]), t)
				if !full && send != w.byzSends[slot] {
					w.mark(hAdj[e])
				}
				w.byzSends[slot] = send
			}
		}
		w.stepRound, w.stepPhase, w.stepVerify = t, i, verify
		if full {
			w.pool.ForChunks(n, w.stepFn)
		} else {
			w.pool.ForChunks(len(w.fr.list), w.stepListFn)
			// Flooding cost of every sleeping node, in one fold.
			w.counters.AddAggregate(w.fr.quietMsgs, w.fr.quietBits)
		}
		// The back buffer holds every node's value after round t, the
		// skipped ones included (see frontier.go): log it as row t.
		copy(w.heldLog[t], w.held.Next())
		w.logTop = t
		if w.Cfg.RecordFrontierOccupancy {
			if full {
				w.occStepped += int64(n)
			} else {
				w.occStepped += int64(len(w.fr.list))
			}
			w.occRounds++
		}
		if frontier && t+1 < i {
			// Round t+1 needs a worklist only when it is itself a
			// frontier round (the final round sweeps everything).
			w.buildFrontier(full)
		}
		w.held.Swap()
		w.counters.CountRound()
		w.globalRound++
		if thr := w.Cfg.InjectionThreshold; thr > 0 && w.entryRound == 0 {
			// First round of this subphase at which any honest node holds
			// an injected color: the Lemma 16 "entry" event.
			for v := 0; v < n; v++ {
				if !w.Byz[v] && !w.crashed[v] && w.held.Cur()[v] >= thr {
					w.entryRound = t
					break
				}
			}
		}
		if w.Cfg.Observer != nil {
			w.Cfg.Observer.RoundEnd(w)
		}
	}
	if w.entryRound > 0 {
		if w.injectionEntries == nil {
			w.injectionEntries = make(map[int]int)
		}
		w.injectionEntries[w.entryRound]++
	}
	w.Clock.Round = 0
}

// maxCandidates bounds the per-node improvement-candidate buffer. H-degree
// is the paper's constant d (8–16), so the bound only binds at synthetic
// high-degree configurations; when it does, candBuf keeps the largest
// candidates instead of the first arrivals. It is also the degree limit of
// the row-max kernel: a row that cannot overflow the buffer verifies its
// candidates in arrival order.
const maxCandidates = 64

// candBuf is the bounded improvement-candidate buffer of Algorithm 2's
// best-first selection. It lives on selectVerified's stack and is built
// only for a row whose best candidate failed verification (or whose
// candidates overflow it); once full it tracks the index of its smallest
// kept value, so the common overflow outcome — the offered candidate loses
// to everything kept — rejects on a single compare instead of a
// full-buffer scan. Only an actual replacement rescans for the new
// minimum.
type candBuf struct {
	vals [maxCandidates]int64
	from [maxCandidates]int32
	n    int
	min  int // index of the smallest kept value; valid once n == maxCandidates
}

// refreshMin rescans for the smallest kept value, keeping the first index
// on ties (matching the argmin scan the old eviction used, so eviction
// order — and therefore every golden digest — is unchanged).
func (b *candBuf) refreshMin() {
	b.min = 0
	for q := 1; q < maxCandidates; q++ {
		if b.vals[q] < b.vals[b.min] {
			b.min = q
		}
	}
}

// insert records candidate (c, nb), evicting the smallest kept candidate
// when full and c beats it. Reports whether the buffer overflowed.
func (b *candBuf) insert(c int64, nb int32) (overflowed bool) {
	if b.n < maxCandidates {
		b.vals[b.n], b.from[b.n] = c, nb
		b.n++
		if b.n == maxCandidates {
			b.refreshMin()
		}
		return false
	}
	if c > b.vals[b.min] {
		b.vals[b.min], b.from[b.min] = c, nb
		b.refreshMin()
	}
	return true
}

// msgTally is a chunk-local message-cost accumulator: each pool chunk of
// a round keeps one on its stack, every flood and attestation charge of
// the chunk lands in it, and publish folds it into the run's counters
// with one AddAggregateMax. Sums and maxima do not depend on order, so
// Messages, Bits and MaxMessageBits come out exactly as per-charge
// atomic calls would leave them.
type msgTally struct {
	msgs, bits, maxBits int64
}

// add charges count messages of the given size. Like
// sim.Counters.CountMessages, a non-positive count records nothing, not
// even a maximum.
func (a *msgTally) add(count, bits int) {
	if count <= 0 {
		return
	}
	a.msgs += int64(count)
	a.bits += int64(count) * int64(bits)
	a.maxBits = max(a.maxBits, int64(bits))
}

// publish folds the tally into c and rewinds it.
func (a *msgTally) publish(c *sim.Counters) {
	if a.msgs != 0 {
		c.AddAggregateMax(a.msgs, a.bits, a.maxBits)
	}
	*a = msgTally{}
}

// stepNode advances node v through round t of an i-round subphase:
// deliver neighbor sends, verify improvements, update the held color and
// the k_t bookkeeping (in the final round, the continue test). Message
// costs are charged to the caller's chunk tally.
func (w *World) stepNode(v, t, i int, verify bool, acc *msgTally) {
	cur := w.held.Cur()
	next := w.held.Next()

	if w.crashed[v] {
		next[v] = 0
		w.hasCand[v] = false
		return
	}

	hAdj := w.hAdj
	begin, end := w.hOff[v], w.hOff[v+1]

	lossy := w.plan.lossThresh != 0

	if w.Byz[v] {
		// Bookkeeping only: Byzantine nodes "hold" the max of everything
		// they hear, giving strategies a sane protocol-following default.
		best := cur[v]
		for e := begin; e < end; e++ {
			nb := hAdj[e]
			if !w.crashed[nb] && cur[nb] > best {
				if lossy && w.dropRecv(e) {
					continue
				}
				best = cur[nb]
			}
		}
		next[v] = best
		w.hasCand[v] = false
		return
	}

	heldv := cur[v]
	// Flooding cost: v sent its held color to all H-neighbors this round
	// (the degree falls out of the CSR offsets).
	if heldv > 0 {
		acc.add(int(end-begin), messageBits(heldv))
	}

	// kt is the max reception this round (after verification); best is
	// the largest improvement candidate — a delivered reception above
	// heldv, 0 if there is none — and from the sender of its first
	// arrival. fits records that every candidate fits candBuf, so arrival
	// order is the selection order among equal values.
	var kt, best int64
	var from int32
	fits := true
	if !lossy && !w.byzRow[v] && end-begin <= maxCandidates {
		// Row-max kernel: every reception is a neighbor's held color
		// (crashed senders hold 0, see DESIGN §1), so the scan is one
		// running max over the row.
		row := hAdj[begin:end]
		if !verify {
			// Algorithm 1 takes the max reception unverified: it is k_t,
			// and the new held value when it exceeds heldv.
			for _, nb := range row {
				kt = max(kt, cur[nb])
			}
			next[v] = max(heldv, kt)
			w.hasCand[v] = kt > heldv
			w.foldKt(v, kt, t, i)
			return
		}
		// Algorithm 2 also needs the sender of the max's first arrival.
		for _, nb := range row {
			if c := cur[nb]; c > best {
				best, from = c, nb
			}
		}
		if best <= heldv {
			// Only echoes: the max reception is k_t, and nothing to verify.
			kt, best = best, 0
		}
	} else {
		var cands int
		kt, best, from, cands = w.scanRow(v, heldv, lossy)
		fits = cands <= maxCandidates
	}
	// Improvement candidates force a re-step next round even when the
	// held value stays put: failed candidates are re-verified (with
	// round-dependent outcomes and attestation costs) every round.
	w.hasCand[v] = best > 0

	newHeld := heldv
	if best > 0 {
		// Without verification the best candidate is the new maximum.
		// With it, the first arrival of the best is exactly what the
		// best-first selection would try first; only when it fails (or
		// eviction decides the order) is the candidate buffer built.
		if !verify || fits && w.verifyColor(v, from, best, t, acc) {
			newHeld, kt = best, best
		} else {
			newHeld, kt = w.selectVerified(v, t, heldv, best, fits, acc)
		}
	}

	next[v] = newHeld
	w.foldKt(v, kt, t, i)
}

// foldKt records k_t, honest node v's max reception in round t of an
// i-round subphase. Earlier rounds raise max_{t<i} k_t; the final round
// evaluates the continue criterion (Algorithm 1 lines 16–18): k_i > k_t
// for all t < i, and k_i > θ_i. The phase's decision reads the flag only
// for active nodes, so a decided one may set it too.
func (w *World) foldKt(v int, kt int64, t, i int) {
	if t < i {
		w.maxEarly[v] = max(w.maxEarly[v], kt)
	} else if kt > w.maxEarly[v] && float64(kt) > w.stepTheta {
		w.continueFlag[v] = true
	}
}

// reception is the value v receives on its CSR entry e this round, before
// message loss: the latched send of a Byzantine sender, the held color of
// a live honest one, or nothing (0) from a crashed one.
func (w *World) reception(e int32, cur []int64) int64 {
	if slot := w.byzIn[e]; slot >= 0 {
		return w.byzSends[slot]
	}
	if nb := w.hAdj[e]; !w.crashed[nb] {
		return cur[nb]
	}
	return 0
}

// scanRow is the reception scan for the rows the row-max kernel excludes
// (lossy links, a Byzantine sender, degree above maxCandidates). It counts
// the receptions lost in transit (the sender still paid to transmit) and
// returns the max echo (a delivered reception at most heldv: echoes need
// no verification), the best candidate with the sender of its first
// arrival, and how many candidates were delivered.
func (w *World) scanRow(v int, heldv int64, lossy bool) (kt, best int64, from int32, cands int) {
	cur := w.held.Cur()
	var drops int64
	for e := w.hOff[v]; e < w.hOff[v+1]; e++ {
		c := w.reception(e, cur)
		if c == 0 {
			continue
		}
		if lossy && w.dropRecv(e) {
			drops++
			continue
		}
		if c <= heldv {
			kt = max(kt, c)
			continue
		}
		cands++
		if c > best {
			best, from = c, w.hAdj[e]
		}
	}
	if drops > 0 {
		w.dropped.Add(drops)
	}
	return kt, best, from, cands
}

// selectVerified runs Algorithm 2's best-first selection for node v's
// row: it fills candBuf with the delivered receptions above heldv, in
// arrival order (loss coins are stateless, so the rescan delivers what
// the first scan did, and its drops are not counted again), then verifies
// the kept candidates in descending order, ties in buffer order, until
// one passes; failed candidates are discarded (Algorithm 2: inconsistent
// high values are dropped). When consumed is set the caller already
// verified best's first arrival, which fails, so that slot is dropped
// without a second verification and the verifyColor call sequence is
// exactly that of building the buffer up front. It returns the new held
// value and k_t.
func (w *World) selectVerified(v, t int, heldv, best int64, consumed bool, acc *msgTally) (newHeld, kt int64) {
	cur := w.held.Cur()
	lossy := w.plan.lossThresh != 0
	var cands candBuf
	for e := w.hOff[v]; e < w.hOff[v+1]; e++ {
		c := w.reception(e, cur)
		if c == 0 || lossy && w.dropRecv(e) {
			continue
		}
		if c <= heldv {
			kt = max(kt, c)
			continue
		}
		if cands.insert(c, w.hAdj[e]) {
			w.candOverflows.Add(1)
		}
	}
	if consumed {
		for q := 0; q < cands.n; q++ {
			if cands.vals[q] == best {
				cands.vals[q] = 0
				break
			}
		}
	}
	newHeld = heldv
	for {
		// In-place bounded selection: descending value, ties in buffer
		// order. Candidates are all > heldv >= 0, so 0 marks a consumed
		// slot.
		q := -1
		var bc int64
		for k := 0; k < cands.n; k++ {
			if cands.vals[k] > bc {
				bc, q = cands.vals[k], k
			}
		}
		if q < 0 {
			return newHeld, kt
		}
		cands.vals[q] = 0
		if w.verifyColor(v, cands.from[q], bc, t, acc) {
			return bc, max(kt, bc)
		}
	}
}

// buildResult snapshots the world into an immutable Result.
func (w *World) buildResult() *Result {
	n := w.N()
	res := &Result{
		N:         n,
		D:         w.Net.Params.D,
		K:         w.Net.K,
		LogN:      math.Log2(float64(n)),
		Algorithm: w.Cfg.Algorithm,
		Epsilon:   w.Cfg.Epsilon,
		Estimates: append([]int32(nil), w.decided...),
		DecidedAt: append([]int64(nil), w.decidedRound...),
		Crashed:   append([]bool(nil), w.crashed...),
		Byzantine: append([]bool(nil), w.Byz...),
		Rounds:    w.globalRound,

		ActivePerPhase: append([]int(nil), w.activePerPhase...),
	}
	snap := w.counters.Snapshot()
	res.Messages = snap.Messages
	res.Bits = snap.Bits
	res.MaxMessageBits = snap.MaxBits
	if w.Cfg.RecordFrontierOccupancy {
		res.FrontierOccupancy = append([]float64(nil), w.occPerPhase...)
	}
	if w.injectionEntries != nil {
		res.InjectionEntryRounds = make(map[int]int, len(w.injectionEntries))
		for t, c := range w.injectionEntries {
			res.InjectionEntryRounds[t] = c
		}
	}
	for v := 0; v < n; v++ {
		switch {
		case w.Byz[v]:
			res.ByzantineCount++
		case w.crashed[v]:
			res.CrashedCount++
		case w.decided[v] == 0:
			res.UndecidedCount++
		default:
			if p := int(w.decided[v]); p > res.Phases {
				res.Phases = p
			}
		}
	}
	res.HonestCount = n - res.ByzantineCount
	res.ChurnCrashes = w.churnCrashes
	res.Rejoins = w.rejoins
	res.DroppedMessages = w.dropped.Load()
	return res
}
