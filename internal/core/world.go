package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/hgraph"
	"repro/internal/rng"
	"repro/internal/sim"
)

// World holds the full simulation state of one protocol run. The Adversary
// reads it freely (full-information model); honest node logic lives in the
// engine (run.go) and only touches its own node's state within a round.
//
// A World is a reusable arena: NewWorld returns an empty one, Reset (or
// ResetTopology) rewinds it for a run without reallocating steady-state
// buffers, and Close releases its worker pool. The sweep runner keeps one
// World per worker and reuses it across jobs; one-shot callers go through
// the package-level Run, which wraps the same lifecycle.
type World struct {
	Net   *hgraph.Network
	Byz   []bool
	Cfg   Config
	Sched Schedule
	Clock Clock

	// topo is the immutable per-network half of the arena (CSR adjacency,
	// reverse-edge index); everything below is mutable per-run state.
	topo *Topology

	held         *sim.Exchange[int64]
	heldBuf      []int64   // slab backing heldLog, zeroed on Reset
	heldLog      [][]int64 // [node][round] held value after each round of the current subphase
	logN, logLen int       // dimensions heldBuf/heldLog were built for
	color        []int64   // color drawn this subphase (0 if not generating)
	decided      []int32   // phase at which the node decided; 0 = still active
	decidedRound []int64   // global round at which the node decided
	crashed      []bool    // honest nodes that shut down in the exchange
	continueFlag []bool    // per-phase: some subphase satisfied the continue criterion
	maxEarly     []int64   // per-subphase: max_{t<i} k_t
	kFinal       []int64   // per-subphase: k_i
	colorSrc     []rng.Source
	zeroByz      []bool // reusable all-false vector for byz == nil

	// views[v] maps a lying node to the H-adjacency it claimed to v during
	// the exchange; nil means v's view of the topology is ground truth.
	views []map[int32][]int32

	byzList []int32
	// byzIn is the CSR-aligned Byzantine send-slot index: for every H CSR
	// entry e owned by receiver v, byzIn[e] is the byzSends slot of the
	// sender hAdj[e] on the edge (hAdj[e] → v), or -1 if that sender is
	// honest. It replaces the seed engine's (b<<32|v) hash-map lookup in
	// stepNode with one array index. Parallel edges share a slot, exactly
	// as the map deduplicated them.
	byzIn    []int32
	byzSends []int64 // latched adversary sends for the current round

	counters       sim.Counters
	pool           *sim.Pool
	poolOwned      bool // whether Close should shut the pool down
	globalRound    int64
	adv            Adversary
	activePerPhase []int

	// Allocation-free round dispatch: runSubphase parks its loop variables
	// here and hands the pool one persistent closure instead of capturing
	// a fresh one (which would escape to the heap) every round. stepFn
	// walks node ids directly (full sweeps); stepListFn walks the frontier
	// worklist (see frontier.go).
	stepFn     func(start, end int)
	stepListFn func(start, end int)
	stepRound  int
	stepPhase  int
	stepVerify bool

	// fr is the quiescence-aware frontier scheduler's reusable state
	// (worklists, dirty stamps, the quiet flood-cost aggregate); hasCand[v]
	// marks nodes that saw improvement candidates this round and so must
	// be re-stepped next round (verification outcomes and attestation
	// costs depend on the round index). logUpTo[v] is the last round of
	// the current subphase whose heldLog entry was actually written —
	// skipped nodes stop writing their (unchanged) log, and every reader
	// goes through the clamped logAt accessor instead. See frontier.go.
	fr      frontier
	hasCand []bool
	logUpTo []int32

	// Frontier-occupancy instrumentation (Config.RecordFrontierOccupancy):
	// node-rounds stepped and rounds executed in the current phase, and
	// the per-phase fractions accumulated so far.
	occStepped  int64
	occRounds   int64
	occPerPhase []float64

	// Reusable exchange scratch (Algorithm 2 preprocessing; see
	// exchange.go). exchBFS holds a victim's ground-truth k-ball, which is
	// also its channel set. The claimed-topology BFS stamps the nodes it
	// reaches (exchSeen) and the current victim's claimers
	// (exchClaimEpoch, with their index into exchClaims in exchClaimIdx)
	// with exchEpoch, one epoch per victim, so nothing is cleared between
	// victims or runs.
	exchBFS        *graph.BFS
	exchCand       []bool
	exchClaims     []claim
	exchQueue      []int32
	exchEpoch      int32
	exchSeen       []int32
	exchClaimEpoch []int32
	exchClaimIdx   []int32

	// candOverflows counts rounds in which a node saw more than
	// maxCandidates improvement candidates (possible only at H-degree
	// > maxCandidates); the bounded selection then keeps the best rather
	// than the first arrivals. Diagnostic only — not part of Result.
	candOverflows atomic.Int64

	// Lemma 16 instrumentation (Config.InjectionThreshold > 0):
	// entryRound is the round the current subphase first saw an injected
	// color in honest hands; injectionEntries histograms those per run.
	entryRound       int
	injectionEntries map[int]int

	// churnCrashes counts mid-run crash failures injected by the fault
	// models (Config.Churn and Config.Faults); rejoins counts nodes a
	// JoinChurn model brought back.
	churnCrashes int
	rejoins      int

	// plan is the run's fault schedule (crash/rejoin events, message-loss
	// parameters), rebuilt from the configured FaultModels each run inside
	// reusable scratch. dropped counts honest-side receptions omitted by
	// message loss (atomic: stepNode runs in parallel).
	plan    FaultPlan
	dropped atomic.Int64

	// batch/lane bind this World as lane `lane` of a BatchWorld run (see
	// batch.go): the hot flood state then lives lane-major in the batch's
	// struct-of-arrays boards, and the Held/CoinStream accessors redirect
	// there so adversaries and observers see the batch state through the
	// unchanged scalar API. nil outside batch execution.
	batch *BatchWorld
	lane  int
}

// NewWorld returns an empty arena. Reset it before running; Close it when
// done (Close only releases the worker pool — a closed arena can be Reset
// and used again).
func NewWorld() *World { return &World{} }

// resetSlice returns s with length n and every element zeroed, reusing the
// backing array when it is large enough.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Reset rewinds the arena for a run of cfg on (net, byz, adv), reusing
// every steady-state buffer from the previous run. Topology tables are
// recomputed only when net differs from the previous Reset's network;
// callers that already hold a Topology (the sweep cache) should use
// ResetTopology instead.
func (w *World) Reset(net *hgraph.Network, byz []bool, adv Adversary, cfg Config) error {
	topo := w.topo
	if topo == nil || topo.Net != net {
		topo = NewTopology(net)
	}
	return w.ResetTopology(topo, byz, adv, cfg)
}

// ResetTopology is Reset with the per-network tables supplied by the
// caller. topo may be shared across arenas and goroutines; the World only
// reads it.
func (w *World) ResetTopology(topo *Topology, byz []bool, adv Adversary, cfg Config) error {
	net := topo.Net
	n := net.H.N()
	if byz == nil {
		w.zeroByz = resetSlice(w.zeroByz, n)
		byz = w.zeroByz
	}
	if len(byz) != n {
		return fmt.Errorf("core: byz vector length %d != n %d", len(byz), n)
	}
	cfg = cfg.withDefaults(n)
	if err := cfg.Validate(); err != nil {
		return err
	}
	if adv == nil {
		adv = HonestAdversary{}
	}

	// Unmark the previous run's Byzantine slots before the topology or
	// fault set underneath them changes.
	w.clearByzIn()
	topoChanged := w.topo != topo
	w.topo = topo
	w.Net = net
	w.Byz = byz
	w.Cfg = cfg
	w.Sched = Schedule{D: net.Params.D, Epsilon: cfg.Epsilon}
	w.Clock = Clock{}
	w.adv = adv

	if w.held == nil || len(w.held.Cur()) != n {
		w.held = sim.NewExchange[int64](n)
	} else {
		w.held.Reset()
	}
	logLen := cfg.MaxPhase + 1
	if w.logN != n || w.logLen != logLen {
		w.heldBuf = resetSlice(w.heldBuf, n*logLen)
		w.heldLog = resetSlice(w.heldLog, n)
		for v := 0; v < n; v++ {
			w.heldLog[v] = w.heldBuf[v*logLen : (v+1)*logLen]
		}
		w.logN, w.logLen = n, logLen
	} else {
		clear(w.heldBuf)
	}
	w.color = resetSlice(w.color, n)
	w.decided = resetSlice(w.decided, n)
	w.decidedRound = resetSlice(w.decidedRound, n)
	w.crashed = resetSlice(w.crashed, n)
	w.continueFlag = resetSlice(w.continueFlag, n)
	w.maxEarly = resetSlice(w.maxEarly, n)
	w.kFinal = resetSlice(w.kFinal, n)
	w.views = resetSlice(w.views, n)
	w.exchCand = resetSlice(w.exchCand, n)
	if cap(w.colorSrc) < n {
		w.colorSrc = make([]rng.Source, n)
	} else {
		w.colorSrc = w.colorSrc[:n]
	}
	for v := 0; v < n; v++ {
		w.colorSrc[v].SeedSplit(cfg.Seed, uint64(v))
	}

	w.rebuildByzTables(topoChanged)

	w.counters.Reset()
	w.globalRound = 0
	w.churnCrashes = 0
	w.rejoins = 0
	w.plan.reset(n)
	w.dropped.Store(0)
	w.entryRound = 0
	w.injectionEntries = nil
	w.activePerPhase = w.activePerPhase[:0]
	w.candOverflows.Store(0)
	w.fr.reset(n)
	w.hasCand = resetSlice(w.hasCand, n)
	w.logUpTo = resetSlice(w.logUpTo, n)
	w.occStepped, w.occRounds = 0, 0
	w.occPerPhase = w.occPerPhase[:0]
	w.batch, w.lane = nil, 0

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.Pool != nil:
		if w.poolOwned && w.pool != nil {
			w.pool.Close()
		}
		w.pool, w.poolOwned = cfg.Pool, false
	case w.pool != nil && w.poolOwned && w.pool.Workers() == workers:
		// Reuse the arena's pool from the previous run.
	default:
		if w.poolOwned && w.pool != nil {
			w.pool.Close()
		}
		w.pool, w.poolOwned = sim.NewPool(workers), true
	}

	if w.stepFn == nil {
		w.stepFn = func(start, end int) {
			for v := start; v < end; v++ {
				w.stepNode(v, w.stepRound, w.stepPhase, w.stepVerify)
			}
		}
		w.stepListFn = func(start, end int) {
			for idx := start; idx < end; idx++ {
				w.stepNode(int(w.fr.list[idx]), w.stepRound, w.stepPhase, w.stepVerify)
			}
		}
	}
	if topoChanged || w.exchBFS == nil {
		w.exchBFS = graph.NewBFS(net.H)
	}
	return nil
}

// clearByzIn resets the slot marks left by the previous run's Byzantine
// set, touching only the entries adjacent to those nodes (via the
// reverse-edge index) instead of the whole O(E) table.
func (w *World) clearByzIn() {
	if w.topo == nil || len(w.byzIn) != len(w.topo.hAdj) {
		return
	}
	for _, b := range w.byzList {
		for e := w.topo.hOff[b]; e < w.topo.hOff[b+1]; e++ {
			w.byzIn[w.topo.rev[e]] = -1
		}
	}
}

// rebuildByzTables assigns send slots for the current Byzantine set. Slot
// numbering matches the seed engine's map-insertion order (Byzantine nodes
// ascending, CSR adjacency order, parallel edges deduplicated), so latched
// values land in the same slots the hash map would have used.
func (w *World) rebuildByzTables(topoChanged bool) {
	topo := w.topo
	if topoChanged || len(w.byzIn) != len(topo.hAdj) {
		w.byzIn = resetSlice(w.byzIn, len(topo.hAdj))
		for i := range w.byzIn {
			w.byzIn[i] = -1
		}
	}
	w.byzList = w.byzList[:0]
	slots := int32(0)
	n := topo.Net.H.N()
	for v := 0; v < n; v++ {
		if !w.Byz[v] {
			continue
		}
		w.byzList = append(w.byzList, int32(v))
		prev := int32(-1)
		var s int32
		for e := topo.hOff[v]; e < topo.hOff[v+1]; e++ {
			nb := topo.hAdj[e]
			if nb != prev {
				s = slots
				slots++
				prev = nb
			}
			w.byzIn[topo.rev[e]] = s
		}
	}
	w.byzSends = resetSlice(w.byzSends, int(slots))
}

// Close releases the arena's worker pool (if it owns one — a pool supplied
// via Config.Pool belongs to the caller). The arena can be Reset and used
// again afterwards.
func (w *World) Close() {
	if w.poolOwned && w.pool != nil {
		w.pool.Close()
	}
	w.pool, w.poolOwned = nil, false
}

// --- Read accessors (used by adversaries and reports) ---

// N returns the network size (which honest nodes, of course, do not know).
func (w *World) N() int { return w.Net.H.N() }

// Held returns the color node v currently holds (after the last completed
// round of the current subphase).
func (w *World) Held(v int) int64 {
	if bw := w.batch; bw != nil {
		return bw.cur[v*bw.nl+w.lane]
	}
	return w.held.Cur()[v]
}

// HeldLogAt returns the color node v held after round r of the current
// subphase; r = 0 is the node's own generated color.
func (w *World) HeldLogAt(v, r int) int64 {
	if r < 0 || r >= len(w.heldLog[v]) {
		return 0
	}
	return w.logAt(int32(v), r)
}

// logAt reads node x's held log at round r through the frontier's
// watermark: rounds the scheduler skipped were never written, but a
// skipped node's held value is by construction unchanged since its last
// written round, so the clamp reproduces exactly what an eager write
// would have stored. logUpTo is only advanced serially between rounds,
// and heldLog entries at or below it are never written again, so this is
// safe to call from the round's worker goroutines.
func (w *World) logAt(x int32, r int) int64 {
	if bw := w.batch; bw != nil {
		// Batch-bound lanes log into the shared round-major board (one
		// contiguous row per round) with a lane-major watermark instead
		// of per-lane slabs; the clamp rule is unchanged.
		idx := int(x)*bw.nl + w.lane
		if u := int(bw.blogUp[idx]); r > u {
			r = u
		}
		return bw.blog[r][idx]
	}
	if u := int(w.logUpTo[x]); r > u {
		r = u
	}
	return w.heldLog[x][r]
}

// OwnColor returns the color v generated this subphase (0 if v is not
// generating: decided, crashed, or Byzantine).
func (w *World) OwnColor(v int) int64 { return w.color[v] }

// DecidedPhase returns the phase at which v decided, or 0 if still active.
func (w *World) DecidedPhase(v int) int { return int(w.decided[v]) }

// IsCrashed reports whether honest node v shut itself down in the exchange.
func (w *World) IsCrashed(v int) bool { return w.crashed[v] }

// IsActive reports whether v is an honest, uncrashed, undecided node.
func (w *World) IsActive(v int) bool {
	return !w.Byz[v] && !w.crashed[v] && w.decided[v] == 0
}

// CoinStream returns a clone of v's protocol coin stream: the adversary can
// replay every future color v will draw (the paper's adversary knows all
// current and future random choices).
func (w *World) CoinStream(v int) *rng.Source {
	if bw := w.batch; bw != nil {
		return bw.colorSrc[v*bw.nl+w.lane].Clone()
	}
	return w.colorSrc[v].Clone()
}

// ByzantineNodes returns the indices of the Byzantine nodes.
func (w *World) ByzantineNodes() []int32 { return w.byzList }

// GlobalRound returns the number of synchronous rounds elapsed.
func (w *World) GlobalRound() int64 { return w.globalRound }

// Counters returns the communication-cost counters.
func (w *World) Counters() *sim.Counters { return &w.counters }

// viewNeighbors returns node x's H-adjacency as believed by verifier v:
// the claim x made to v during the exchange if x lied to v, else ground
// truth.
func (w *World) viewNeighbors(v int, x int32) []int32 {
	if ov := w.views[v]; ov != nil {
		if claimed, ok := ov[x]; ok {
			return claimed
		}
	}
	return w.topo.hAdj[w.topo.hOff[x]:w.topo.hOff[x+1]]
}

// activeCount returns the number of honest, uncrashed, undecided nodes.
func (w *World) activeCount() int {
	count := 0
	for v := 0; v < w.N(); v++ {
		if w.IsActive(v) {
			count++
		}
	}
	return count
}
