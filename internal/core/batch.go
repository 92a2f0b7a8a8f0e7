package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"

	"repro/internal/rng"
	"repro/internal/sim"
)

// batch.go is the batched round engine: B protocol runs ("lanes") execute
// in lockstep over one shared immutable Topology, so each CSR edge
// traversal of the hot round loop services all B lanes before advancing.
// A sweep cell is tens of seed repetitions of core.Run on the same
// network; run alone, each repetition pays the memory-bound CSR walk —
// edge reads, random-access held-board cache misses, per-message atomic
// counter traffic — by itself. Batched, the held boards are laid out
// lane-major (struct-of-arrays: lane l's value at node v lives at
// cur[v*B+l]), so the random access a neighbor read costs pulls the
// values of ALL lanes in one or two cache lines, and per-node bookkeeping
// (crash, Byzantine, quiet, loss eligibility) collapses into 64-bit lane
// masks tested word-parallel.
//
// The engine is built for byte-identity with the scalar engines, per
// lane, not just statistical equivalence:
//
//   - Every lane keeps a full *World arena holding the canonical per-run
//     state the cold paths need — decided/crashed vectors, held logs and
//     watermarks, Byzantine send slots, fault plans, counters, adversary
//     and views. The topology exchange, fault scheduling, chain-
//     attestation verification, adversary callbacks, and Result
//     construction are the unmodified scalar code running on the lane's
//     World. Only the hot flood state (held boards, k_t bookkeeping,
//     color rng streams) moves into the batch's lane-major arrays, and
//     World.Held/CoinStream redirect there so adversaries observe the
//     batch state through the unchanged scalar API.
//
//   - Scheduling follows the PR 4 frontier argument, generalized to
//     (node, lane) pairs: a pair is skipped only when its inputs, own
//     value, latched Byzantine sends, and candidate state are unchanged,
//     with the quiet flood-cost aggregate maintained per lane so skipped
//     pairs are accounted in one AddAggregate fold per lane per round.
//     The batch worklist is the union over lanes — one node entry with a
//     lane mask — so neighborhood marking is a mask-OR per edge instead
//     of B separate passes. Stepping a pair the scalar frontier would
//     have skipped is a byte-identical no-op, so the union list being a
//     superset per lane is sound; the per-lane quiet aggregates cover
//     exactly the pairs not stepped, keeping Messages/Bits exact.
//
//   - Counters are folded per worker chunk: message/bit sums and the
//     per-lane max message size accumulate on the chunk's stack and
//     publish once per lane via Counters.AddAggregateMax — the same
//     totals (sums and max are order-independent) as the scalar engine's
//     per-node atomic calls, without the atomic traffic.
//
// Lanes must share the knobs that drive the lockstep schedule — the
// topology, Algorithm, Epsilon, MaxPhase, and frontier mode — and may
// differ in everything per-run: seed, Byzantine placement, adversary,
// and fault models. Lanes whose runs end early (all nodes decided) drop
// out of the live mask and stop paying anything. The round loop stays at
// 0 allocs/op (TestBatchRoundLoopZeroAlloc); Observer and
// RecordFrontierOccupancy are not supported — callers needing them run
// the scalar engines, which remain first-class (and are the oracles the
// golden and property suites pin this engine against).

// MaxBatchLanes is the lane-count ceiling: lane sets are addressed by
// 64-bit masks.
const MaxBatchLanes = 64

// LaneSpec describes one lane of a batched invocation: the per-run
// parameters that may vary across lanes of a shared topology.
type LaneSpec struct {
	// Byz marks the lane's Byzantine nodes (nil for none).
	Byz []bool
	// Adv drives the lane's Byzantine nodes (nil for HonestAdversary).
	Adv Adversary
	// Cfg is the lane's run configuration. Algorithm, Epsilon, MaxPhase,
	// and the resolved frontier mode must agree across lanes; Observer
	// and RecordFrontierOccupancy are unsupported in batch mode.
	Cfg Config
}

// batchAcc accumulates one worker chunk's per-lane counter deltas on the
// stack; fold publishes them in O(lanes) atomic calls.
type batchAcc struct {
	tally [MaxBatchLanes]msgTally
	drops [MaxBatchLanes]int64
	used  uint64
}

// fold publishes the accumulated deltas to the lane counters and rewinds
// the accumulator for reuse.
func (a *batchAcc) fold(bw *BatchWorld) {
	for m := a.used; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		w := bw.lanes[l]
		a.tally[l].publish(&w.counters)
		if a.drops[l] != 0 {
			w.dropped.Add(a.drops[l])
			a.drops[l] = 0
		}
	}
	a.used = 0
}

// batchScratch is the per-chunk working set of the batched kernel: the
// counter accumulator plus per-lane registers for the node being stepped.
// It lives on the dispatch closure's stack, zeroed once per chunk rather
// than once per node (the candidate buffer is reused by resetting its
// length — its slots are written before they are read).
type batchScratch struct {
	acc    batchAcc
	held   [MaxBatchLanes]int64
	kt     [MaxBatchLanes]int64
	nd     [MaxBatchLanes]int64
	nh     [MaxBatchLanes]int64
	pfSink int64 // keeps the kernel's touch-ahead loads live
	cands  candBuf
}

// BatchWorld is the reusable arena of the batched engine. Like World it
// is rewound per invocation without reallocating steady-state buffers;
// unlike World it hosts up to MaxBatchLanes runs at once.
type BatchWorld struct {
	topo *Topology
	n    int // nodes
	nl   int // lanes (the lane-major stride)

	// arenas is the grow-only pool of lane Worlds; lanes aliases its
	// first nl entries for the current invocation.
	arenas []*World
	lanes  []*World

	pool      *sim.Pool
	poolOwned bool

	verify   bool // Algorithm == AlgorithmByzantine (shared across lanes)
	frontier bool // resolved frontier mode (shared across lanes)

	// Lane-major struct-of-arrays hot state: index v*nl + l.
	cur, next []int64
	maxEarly  []int64
	kFinal    []int64
	colorSrc  []rng.Source

	// blog is the shared held log, round-major then lane-major:
	// blog[r][v*nl+l] is lane l's entry for node v after round r. The
	// round-major layout makes the hot finalize write (every stepped pair,
	// every round) land in one contiguous 8·n·nl-byte row instead of nl
	// per-lane slabs with column stride; logAt redirects batch-bound
	// readers here. blogBuf is the backing slab. blogUp is the lane-major
	// watermark (the lane Worlds' logUpTo, index v*nl+l): without
	// verification no logAt reader runs concurrently with the dispatch, so
	// the advance is fused into the kernel's finalize instead of paying a
	// serial per-round pass; verify runs keep the serial advance because
	// chain attestation reads neighbors' logs mid-round.
	blog    [][]int64
	blogBuf []int64
	blogUp  []int32

	// Per-node lane masks (bit l = lane l).
	byzM     []uint64 // lane's Byzantine set
	crashedM []uint64 // lane's crashed set (rebuilt at phase boundaries)
	hasCandM []uint64 // pairs with a standing improvement candidate
	stepM    []uint64 // worklist mask for the upcoming round (epoch-stamped)
	steppedM []uint64 // mask actually stepped in the executing round
	changedM []uint64 // pairs whose held value changed this round

	liveM    uint64 // lanes still running
	lossyM   uint64 // lanes with message loss armed
	crashedL uint64 // lanes with ≥1 crashed node (refreshed per phase)

	// byzEdgeM[e] marks the lanes in which CSR entry e has a Byzantine
	// sender (so the hot loop tests one word instead of B slot tables).
	// byzRowM[v] is the OR over node v's row — a node whose row is clean
	// in every stepped lane takes the fused whole-row kernel.
	byzEdgeM []uint64
	byzRowM  []uint64

	// Union frontier worklist (see frontier.go for the scalar scheduler
	// this generalizes): fstamp[v] == fepoch marks v ∈ flist. nextFull is
	// the scalar scheduler's saturation bail on the union: when enough of
	// the network changed this round, the next round runs as a full sweep
	// and the marking pass is skipped.
	fstamp   []int64
	fepoch   int64
	flist    []int32
	fscratch []int32
	nextFull bool

	// Per-lane quiet flood-cost aggregates (the scalar engine's
	// quietMsgs/quietBits, one slot per lane), with quietM[v] marking the
	// (node, lane) pairs currently accounted.
	quietM    []uint64
	quietMsgs [MaxBatchLanes]int64
	quietBits [MaxBatchLanes]int64

	// Persistent dispatch closures and their parked loop variables
	// (allocation-free round dispatch, as in World).
	stepFn     func(start, end int)
	stepListFn func(start, end int)
	stepRound  int
	stepPhase  int
	stepFull   bool
}

// NewBatchWorld returns an empty batched arena. Close it when done.
func NewBatchWorld() *BatchWorld { return &BatchWorld{} }

// RunBatch executes one batched invocation on a fresh arena: lane l runs
// the protocol per lanes[l] on topo, and the returned Results are
// byte-identical to running each lane through core.Run alone. Callers
// executing many batches should hold a BatchWorld and use its
// RunTopology method, which reuses the arena across invocations.
func RunBatch(topo *Topology, lanes []LaneSpec) ([]*Result, error) {
	bw := NewBatchWorld()
	defer bw.Close()
	return bw.RunTopology(topo, lanes)
}

// RunTopology rewinds the arena for the given lane set and executes all
// lanes to completion in lockstep.
func (bw *BatchWorld) RunTopology(topo *Topology, lanes []LaneSpec) ([]*Result, error) {
	if err := bw.reset(topo, lanes); err != nil {
		return nil, err
	}
	bw.runBatch()
	out := make([]*Result, bw.nl)
	for l := range out {
		out[l] = bw.lanes[l].buildResult()
	}
	return out, nil
}

// Close releases the arena's worker pool and the lane arenas' resources.
// The BatchWorld can be reused after Close (a new pool is created).
func (bw *BatchWorld) Close() {
	for _, w := range bw.arenas {
		w.Close()
	}
	if bw.poolOwned && bw.pool != nil {
		bw.pool.Close()
	}
	bw.pool, bw.poolOwned = nil, false
}

// reset rewinds the arena for an invocation of the given lane set.
func (bw *BatchWorld) reset(topo *Topology, specs []LaneSpec) error {
	if topo == nil {
		return fmt.Errorf("core: batch needs a topology")
	}
	nl := len(specs)
	if nl < 1 || nl > MaxBatchLanes {
		return fmt.Errorf("core: batch lane count %d outside [1, %d]", nl, MaxBatchLanes)
	}
	n := topo.Net.H.N()

	// Pool lifecycle mirrors World: a caller-supplied pool (lane 0's
	// Config.Pool) is borrowed, otherwise the arena owns one sized by
	// lane 0's Workers and reuses it across invocations.
	workers := specs[0].Cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case specs[0].Cfg.Pool != nil:
		if bw.poolOwned && bw.pool != nil {
			bw.pool.Close()
		}
		bw.pool, bw.poolOwned = specs[0].Cfg.Pool, false
	case bw.pool != nil && bw.poolOwned && bw.pool.Workers() == workers:
		// Reuse the arena's pool.
	default:
		if bw.poolOwned && bw.pool != nil {
			bw.pool.Close()
		}
		bw.pool, bw.poolOwned = sim.NewPool(workers), true
	}

	for len(bw.arenas) < nl {
		bw.arenas = append(bw.arenas, NewWorld())
	}
	bw.lanes = bw.arenas[:nl]
	for l, sp := range specs {
		cfg := sp.Cfg
		if cfg.Observer != nil {
			return fmt.Errorf("core: batch lane %d: Observer is unsupported in batch mode", l)
		}
		if cfg.RecordFrontierOccupancy {
			return fmt.Errorf("core: batch lane %d: RecordFrontierOccupancy is unsupported in batch mode", l)
		}
		cfg.Pool = bw.pool
		if err := bw.lanes[l].ResetTopology(topo, sp.Byz, sp.Adv, cfg); err != nil {
			return fmt.Errorf("core: batch lane %d: %w", l, err)
		}
	}
	w0 := bw.lanes[0]
	for l := 1; l < nl; l++ {
		c := bw.lanes[l].Cfg
		if c.Algorithm != w0.Cfg.Algorithm || c.Epsilon != w0.Cfg.Epsilon || c.MaxPhase != w0.Cfg.MaxPhase {
			return fmt.Errorf("core: batch lane %d: Algorithm/Epsilon/MaxPhase must match lane 0 (lockstep schedule)", l)
		}
		if c.FrontierRounds.enabled() != w0.Cfg.FrontierRounds.enabled() {
			return fmt.Errorf("core: batch lane %d: frontier mode must match lane 0", l)
		}
	}

	bw.topo = topo
	bw.n = n
	bw.nl = nl
	bw.verify = w0.Cfg.Algorithm == AlgorithmByzantine
	bw.frontier = w0.Cfg.FrontierRounds.enabled()

	bw.cur = resetSlice(bw.cur, n*nl)
	bw.next = resetSlice(bw.next, n*nl)
	bw.maxEarly = resetSlice(bw.maxEarly, n*nl)
	bw.kFinal = resetSlice(bw.kFinal, n*nl)
	logLen := w0.Cfg.MaxPhase + 1
	bw.blogBuf = resetSlice(bw.blogBuf, logLen*n*nl)
	bw.blog = resetSlice(bw.blog, logLen)
	for r := 0; r < logLen; r++ {
		bw.blog[r] = bw.blogBuf[r*n*nl : (r+1)*n*nl]
	}
	bw.blogUp = resetSlice(bw.blogUp, n*nl)
	if cap(bw.colorSrc) < n*nl {
		bw.colorSrc = make([]rng.Source, n*nl)
	} else {
		bw.colorSrc = bw.colorSrc[:n*nl]
	}
	for v := 0; v < n; v++ {
		base := v * nl
		for l := 0; l < nl; l++ {
			bw.colorSrc[base+l].SeedSplit(bw.lanes[l].Cfg.Seed, uint64(v))
		}
	}

	bw.byzM = resetSlice(bw.byzM, n)
	bw.crashedM = resetSlice(bw.crashedM, n)
	bw.hasCandM = resetSlice(bw.hasCandM, n)
	bw.stepM = resetSlice(bw.stepM, n)
	bw.steppedM = resetSlice(bw.steppedM, n)
	bw.changedM = resetSlice(bw.changedM, n)
	bw.quietM = resetSlice(bw.quietM, n)
	bw.byzEdgeM = resetSlice(bw.byzEdgeM, len(topo.hAdj))
	bw.byzRowM = resetSlice(bw.byzRowM, n)
	bw.fstamp = resetSlice(bw.fstamp, n)
	bw.fepoch = 0
	if cap(bw.flist) < n {
		bw.flist = make([]int32, 0, n)
	}
	if cap(bw.fscratch) < n {
		bw.fscratch = make([]int32, 0, n)
	}
	bw.flist = bw.flist[:0]
	bw.fscratch = bw.fscratch[:0]
	bw.nextFull = false
	bw.liveM = 0
	bw.lossyM = 0
	for l := range bw.quietMsgs {
		bw.quietMsgs[l], bw.quietBits[l] = 0, 0
	}

	// Bind the lanes so World.Held/CoinStream redirect into the batch
	// boards for adversaries and other scalar-API readers.
	for l, w := range bw.lanes {
		w.batch, w.lane = bw, l
	}

	if bw.stepFn == nil {
		bw.stepFn = func(start, end int) {
			var s batchScratch
			t, i, verify := bw.stepRound, bw.stepPhase, bw.verify
			for v := start; v < end; v++ {
				bw.stepLanes(v, t, i, verify, bw.liveM, false, &s)
			}
			s.acc.fold(bw)
		}
		bw.stepListFn = func(start, end int) {
			var s batchScratch
			t, i, verify := bw.stepRound, bw.stepPhase, bw.verify
			for idx := start; idx < end; idx++ {
				v := int(bw.flist[idx])
				bw.stepLanes(v, t, i, verify, bw.stepM[v]&bw.liveM, false, &s)
			}
			s.acc.fold(bw)
		}
	}
	return nil
}

// rebuildMasks derives the per-node lane masks from the lane Worlds'
// post-exchange, post-scheduling state.
func (bw *BatchWorld) rebuildMasks() {
	for l, w := range bw.lanes {
		bit := uint64(1) << uint(l)
		for v := 0; v < bw.n; v++ {
			if w.Byz[v] {
				bw.byzM[v] |= bit
			}
			if w.crashed[v] {
				bw.crashedM[v] |= bit
			}
		}
		if w.plan.lossThresh != 0 {
			bw.lossyM |= bit
		}
		for e, slot := range w.byzIn {
			if slot >= 0 {
				bw.byzEdgeM[e] |= bit
			}
		}
	}
	hOff := bw.topo.hOff
	for v := 0; v < bw.n; v++ {
		var m uint64
		for e := hOff[v]; e < hOff[v+1]; e++ {
			m |= bw.byzEdgeM[e]
		}
		bw.byzRowM[v] = m
	}
}

// updateCrashedLane refreshes lane l's crashedM bits for the fault events
// its plan replayed in [from, w.plan.cursor) — O(events fired), not O(n).
func (bw *BatchWorld) updateCrashedLane(l, from int) {
	w := bw.lanes[l]
	bit := uint64(1) << uint(l)
	for _, ev := range w.plan.events[from:w.plan.cursor] {
		if w.crashed[ev.node] {
			bw.crashedM[ev.node] |= bit
		} else {
			bw.crashedM[ev.node] &^= bit
		}
	}
}

// runBatch executes all lanes to completion, mirroring World.run lane by
// lane for the cold paths and running the rounds through the batched
// kernel.
func (bw *BatchWorld) runBatch() {
	for _, w := range bw.lanes {
		w.adv.Init(w)
	}
	if bw.verify {
		for _, w := range bw.lanes {
			w.runExchange()
		}
	}
	for _, w := range bw.lanes {
		w.scheduleFaults()
	}
	bw.rebuildMasks()
	bw.liveM = (uint64(1) << uint(bw.nl-1) << 1) - 1 // nl ones (nl may be 64)

	maxPhase := bw.lanes[0].Cfg.MaxPhase
	for i := 1; i <= maxPhase; i++ {
		for q := bw.liveM; q != 0; q &= q - 1 {
			l := bits.TrailingZeros64(q)
			w := bw.lanes[l]
			before := w.plan.cursor
			w.applyFaults(i)
			if w.plan.cursor != before {
				bw.updateCrashedLane(l, before)
			}
			active := w.activeCount()
			if w.Cfg.RecordPhaseActivity {
				w.activePerPhase = append(w.activePerPhase, active)
			}
			if active == 0 {
				bw.liveM &^= uint64(1) << uint(l)
			}
		}
		if bw.liveM == 0 {
			break
		}
		bw.refreshCrashedLanes()
		bw.runPhaseBatch(i)
	}
}

// refreshCrashedLanes recomputes the union crash mask the kernel uses to
// skip the per-edge crashed-sender load when a lane has no crashes at all
// (crash state only changes at phase boundaries).
func (bw *BatchWorld) refreshCrashedLanes() {
	var u uint64
	for _, m := range bw.crashedM {
		u |= m
	}
	bw.crashedL = u
}

// runPhaseBatch is the batched runPhase: phase i for every live lane.
func (bw *BatchWorld) runPhaseBatch(i int) {
	n, B, live := bw.n, bw.nl, bw.liveM
	for q := live; q != 0; q &= q - 1 {
		w := bw.lanes[bits.TrailingZeros64(q)]
		for v := 0; v < n; v++ {
			w.continueFlag[v] = false
		}
	}
	sched := bw.lanes[0].Sched
	subphases := sched.Subphases(i)
	theta := sched.Threshold(i)
	for j := 1; j <= subphases; j++ {
		bw.runSubphaseBatch(i, j)
		for v := 0; v < n; v++ {
			base := v * B
			for q := live &^ bw.byzM[v] &^ bw.crashedM[v]; q != 0; q &= q - 1 {
				l := bits.TrailingZeros64(q)
				w := bw.lanes[l]
				if w.decided[v] != 0 {
					continue
				}
				if bw.kFinal[base+l] > bw.maxEarly[base+l] && float64(bw.kFinal[base+l]) > theta {
					w.continueFlag[v] = true
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		for q := live &^ bw.byzM[v] &^ bw.crashedM[v]; q != 0; q &= q - 1 {
			l := bits.TrailingZeros64(q)
			w := bw.lanes[l]
			if w.decided[v] == 0 && !w.continueFlag[v] {
				w.decided[v] = int32(i)
				w.decidedRound[v] = w.globalRound
			}
		}
	}
}

// runSubphaseBatch is the batched runSubphase: color generation followed
// by i lockstep flooding rounds across all live lanes.
func (bw *BatchWorld) runSubphaseBatch(i, j int) {
	n, B, live := bw.n, bw.nl, bw.liveM
	topo := bw.topo
	hOff, hAdj, rev := topo.hOff, topo.hAdj, topo.rev

	for q := live; q != 0; q &= q - 1 {
		w := bw.lanes[bits.TrailingZeros64(q)]
		w.Clock = Clock{Phase: i, Subphase: j, Round: 0}
		w.entryRound = 0
	}

	// Color generation (lane-major); decided/crashed/Byzantine lanes of a
	// node generate nothing and consume no coins, exactly as the scalar
	// loop's IsActive gate.
	cur := bw.cur
	blog0 := bw.blog[0]
	for v := 0; v < n; v++ {
		base := v * B
		gen := live &^ bw.byzM[v] &^ bw.crashedM[v]
		for q := live; q != 0; q &= q - 1 {
			l := bits.TrailingZeros64(q)
			w := bw.lanes[l]
			var c int64
			if gen&(uint64(1)<<uint(l)) != 0 && w.decided[v] == 0 {
				c = int64(bw.colorSrc[base+l].Geometric())
			}
			w.color[v] = c
			cur[base+l] = c
			blog0[base+l] = c
			bw.blogUp[base+l] = 0
			bw.maxEarly[base+l] = 0
			bw.kFinal[base+l] = 0
		}
	}
	for l := range bw.quietMsgs {
		bw.quietMsgs[l], bw.quietBits[l] = 0, 0
	}
	for q := live; q != 0; q &= q - 1 {
		w := bw.lanes[bits.TrailingZeros64(q)]
		w.adv.SubphaseStart(w)
	}

	frontier := bw.frontier
	for t := 1; t <= i; t++ {
		// The scalar saturation bail, on the union: when the previous
		// build found enough of the network changed, this round runs as a
		// full sweep. Stepping pairs a per-lane frontier would have
		// skipped is a byte-identical no-op (see the package comment), so
		// the dense superset is sound; it trades the worklist's random
		// access order for a sequential sweep in the propagation regime.
		full := !frontier || t == 1 || t == i || bw.nextFull
		bw.nextFull = false
		for q := live; q != 0; q &= q - 1 {
			l := bits.TrailingZeros64(q)
			w := bw.lanes[l]
			w.Clock.Round = t
			for _, b := range w.byzList {
				for e := hOff[b]; e < hOff[b+1]; e++ {
					slot := w.byzIn[rev[e]]
					send := w.adv.Send(w, int(b), int(hAdj[e]), t)
					if !full && send != w.byzSends[slot] {
						bw.markBits(hAdj[e], uint64(1)<<uint(l))
					}
					w.byzSends[slot] = send
				}
			}
		}
		bw.stepRound, bw.stepPhase, bw.stepFull = t, i, full
		if full {
			bw.pool.ForChunks(n, bw.stepFn)
		} else {
			// Ascending node order turns the worklist's board and log
			// accesses into near-sequential sweeps (the list is built in
			// discovery order); membership passes are order-independent.
			slices.Sort(bw.flist)
			bw.pool.ForChunks(len(bw.flist), bw.stepListFn)
			if bw.lossyM&live != 0 {
				bw.quietLossPassBatch(t, i)
			}
			for q := live; q != 0; q &= q - 1 {
				l := bits.TrailingZeros64(q)
				bw.lanes[l].counters.AddAggregate(bw.quietMsgs[l], bw.quietBits[l])
			}
		}
		if bw.verify {
			// Without verification the kernel fuses the watermark advance
			// into its finalize (no concurrent logAt readers to race).
			bw.advanceLogWatermarkBatch(t, full)
		}
		if frontier && t+1 < i {
			bw.buildFrontierBatch(full)
		}
		bw.cur, bw.next = bw.next, bw.cur
		cur = bw.cur
		for q := live; q != 0; q &= q - 1 {
			l := bits.TrailingZeros64(q)
			w := bw.lanes[l]
			w.counters.CountRound()
			w.globalRound++
		}
		for q := live; q != 0; q &= q - 1 {
			l := bits.TrailingZeros64(q)
			w := bw.lanes[l]
			if thr := w.Cfg.InjectionThreshold; thr > 0 && w.entryRound == 0 {
				for v := 0; v < n; v++ {
					if !w.Byz[v] && !w.crashed[v] && cur[v*B+l] >= thr {
						w.entryRound = t
						break
					}
				}
			}
		}
	}
	for q := live; q != 0; q &= q - 1 {
		w := bw.lanes[bits.TrailingZeros64(q)]
		if w.entryRound > 0 {
			if w.injectionEntries == nil {
				w.injectionEntries = make(map[int]int)
			}
			w.injectionEntries[w.entryRound]++
		}
		w.Clock.Round = 0
	}
}
