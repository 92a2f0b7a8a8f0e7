package core

import (
	"fmt"
	"runtime"
	"slices"
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
// A World is a reusable arena: NewWorld returns an empty one, Reset
// rewinds it for a run without reallocating steady-state buffers, and
// Close releases its worker pool. The sweep runner keeps one World per
// worker and reuses it across jobs; one-shot callers go through the
// package-level Run, which wraps the same lifecycle.
type World struct {
	Net   *hgraph.Network
	Byz   []bool
	Cfg   Config
	Sched Schedule
	Clock Clock

	// hOff/hAdj alias H's CSR arrays: node v's H-neighbors are
	// hAdj[hOff[v]:hOff[v+1]]. They change only when Reset gets a
	// different network; everything below is per-run state.
	hOff, hAdj []int32

	held *sim.Exchange[int64]
	// heldLog[t][v] is v's held value after round t of the current
	// subphase (row 0: its generated color). It has rows 0..i for the
	// highest phase i the run has reached, grown at subphase start on
	// the rows an earlier run left; Reset cuts it back to row 0, zeroed.
	// Reads clamp to logTop, the last row written this subphase.
	heldLog      [][]int64
	logTop       int
	color        []int64 // color drawn this subphase (0 if not generating)
	decided      []int32 // phase at which the node decided; 0 = still active
	decidedRound []int64 // global round at which the node decided
	crashed      []bool  // honest nodes that shut down in the exchange
	continueFlag []bool  // per-phase: some subphase's final round met the continue criterion
	maxEarly     []int64 // per-subphase: max_{t<i} k_t
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
	byzIn []int32
	// byzRev holds, for each H entry leaving a Byzantine node (byzList
	// order, CSR order within a row), the CSR position of its reverse
	// entry: the receiver's entry for the same edge, where byzIn holds
	// its slot. Found per run by rebuildByzTables.
	byzRev   []int32
	byzSends []int64 // latched adversary sends for the current round
	// byzRow[v] marks nodes with a Byzantine sender in their H row; the
	// row-max kernel (stepNode) takes only rows without one.
	byzRow []bool

	counters       sim.Counters
	pool           *sim.Pool
	globalRound    int64
	adv            Adversary
	activePerPhase []int

	// Allocation-free round dispatch: runSubphase parks its loop variables
	// here and hands the pool one persistent closure instead of capturing
	// a fresh one (which would escape to the heap) every round. stepFn
	// walks node ids directly (full sweeps); stepListFn walks the frontier
	// worklist (see frontier.go). Each chunk tallies its message costs on
	// its own stack and publishes them once (msgTally). stepTheta is the
	// phase's continue threshold θ_i, read by the final round's steps.
	stepFn     func(start, end int)
	stepListFn func(start, end int)
	stepRound  int
	stepPhase  int
	stepVerify bool
	stepTheta  float64

	// fr is the quiescence-aware frontier scheduler's reusable state
	// (worklists, dirty stamps, the quiet flood-cost aggregate); hasCand[v]
	// marks nodes that saw improvement candidates this round and so must
	// be re-stepped next round (verification outcomes and attestation
	// costs depend on the round index). See frontier.go.
	fr      frontier
	hasCand []bool

	// attested[x] is honest sender x's chain-attestation outcome for the
	// current round (see verifyColor): the round stamp, whether the chain
	// passed, and how many queries the search sent. Written concurrently
	// by the round's chunks, always with the same value for one stamp.
	attested []atomic.Uint64

	// Frontier-occupancy instrumentation (Config.RecordFrontierOccupancy):
	// node-rounds stepped and rounds executed in the current phase, and
	// the per-phase fractions accumulated so far.
	occStepped  int64
	occRounds   int64
	occPerPhase []float64

	// Reusable exchange scratch (Algorithm 2 preprocessing; see
	// exchange.go). exchBFS holds one Byzantine node's k-ball. exchRecs
	// holds one record per (victim, Byzantine channel) pair, grouped by
	// victim, and exchEnd[v] is where v's records end; exchKeys holds
	// their keys, k entries per record. All three are sized by a counting
	// pass and reused across runs. The claimed-topology BFS stamps the
	// nodes it reaches (exchSeen), the victim's claimers (exchClaimEpoch,
	// with their index into exchClaims in exchClaimIdx) and the claimers'
	// H-neighbours (exchNear) with exchEpoch, a fresh epoch per pass, so
	// nothing is cleared between victims or runs; a victim whose claimed
	// ball needs the phantom check gets its channel set, its own k-ball,
	// from exchBFS.
	exchBFS        *graph.BFS
	exchEnd        []int32
	exchRecs       []exchRec
	exchKeys       []int32
	exchClaims     []claim
	exchQueue      []int32
	exchEpoch      int32
	exchSeen       []int32
	exchNear       []int32
	exchClaimEpoch []int32
	exchClaimIdx   []int32

	// candOverflows counts candidates offered to a full candidate buffer
	// (possible only at H-degree > maxCandidates, and only in a verifying
	// row that builds the buffer); the bounded selection then keeps the
	// best rather than the first arrivals. Diagnostic only — not part of
	// Result.
	candOverflows atomic.Int64

	// Lemma 16 instrumentation (Config.InjectionThreshold > 0):
	// entryRound is the round the current subphase first saw an injected
	// color in honest hands; injectionEntries histograms those per run.
	entryRound       int
	injectionEntries map[int]int

	// churnCrashes counts mid-run crash failures injected by the fault
	// models (Config.Faults); rejoins counts nodes a JoinChurn model
	// brought back.
	churnCrashes int
	rejoins      int

	// plan is the run's fault schedule (crash/rejoin events, message-loss
	// parameters), rebuilt from the configured FaultModels each run inside
	// reusable scratch. dropped counts honest-side receptions omitted by
	// message loss (atomic: stepNode runs in parallel).
	plan    FaultPlan
	dropped atomic.Int64
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
// every steady-state buffer from the previous run. State that depends on
// the network alone is rebuilt only when net differs from the previous
// Reset's network; net may be shared across arenas and goroutines, and
// the World only reads it.
func (w *World) Reset(net *hgraph.Network, byz []bool, adv Adversary, cfg Config) error {
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

	// Unmark the previous run's Byzantine slots before the network or
	// fault set underneath them changes.
	w.clearByzIn()
	netChanged := w.Net != net
	if netChanged {
		w.hOff, w.hAdj = net.H.CSR()
	}
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
	w.heldLog = w.heldLog[:0]
	w.growHeldLog(0)
	w.logTop = 0
	w.color = resetSlice(w.color, n)
	w.decided = resetSlice(w.decided, n)
	w.decidedRound = resetSlice(w.decidedRound, n)
	w.crashed = resetSlice(w.crashed, n)
	w.continueFlag = resetSlice(w.continueFlag, n)
	w.maxEarly = resetSlice(w.maxEarly, n)
	w.views = resetSlice(w.views, n)
	if cap(w.colorSrc) < n {
		w.colorSrc = make([]rng.Source, n)
	} else {
		w.colorSrc = w.colorSrc[:n]
	}
	for v := 0; v < n; v++ {
		w.colorSrc[v].SeedSplit(cfg.Seed, uint64(v))
	}

	w.rebuildByzTables(netChanged)

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
	w.attested = resetSlice(w.attested, n)
	w.occStepped, w.occRounds = 0, 0
	w.occPerPhase = w.occPerPhase[:0]

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if w.pool == nil || w.pool.Workers() != workers {
		w.Close()
		w.pool = sim.NewPool(workers)
	}

	if w.stepFn == nil {
		w.stepFn = func(start, end int) {
			var acc msgTally
			for v := start; v < end; v++ {
				w.stepNode(v, w.stepRound, w.stepPhase, w.stepVerify, &acc)
			}
			acc.publish(&w.counters)
		}
		w.stepListFn = func(start, end int) {
			var acc msgTally
			for idx := start; idx < end; idx++ {
				w.stepNode(int(w.fr.list[idx]), w.stepRound, w.stepPhase, w.stepVerify, &acc)
			}
			acc.publish(&w.counters)
		}
	}
	if netChanged || w.exchBFS == nil {
		w.exchBFS = graph.NewBFS(net.H)
	}
	return nil
}

// growHeldLog extends the held log to rows 0..top, each n zeroed
// entries, reusing the rows, and their capacity, that an earlier run
// left past its length.
func (w *World) growHeldLog(top int) {
	n := w.N()
	for r := len(w.heldLog); r <= top; r++ {
		w.heldLog = slices.Grow(w.heldLog, 1)[:r+1]
		w.heldLog[r] = resetSlice(w.heldLog[r], n)
	}
}

// clearByzIn resets the slot marks left by the previous run's Byzantine
// set, touching only the entries those nodes send on (via byzRev)
// instead of the whole O(E) table.
func (w *World) clearByzIn() {
	for _, r := range w.byzRev {
		w.byzIn[r] = -1
	}
	w.byzRev = w.byzRev[:0]
}

// rebuildByzTables assigns send slots for the current Byzantine set and
// marks the rows those sends reach (byzRow). Slot numbering matches the
// seed engine's map-insertion order (Byzantine nodes ascending, CSR
// adjacency order, parallel edges deduplicated), so latched values land
// in the same slots the hash map would have used.
//
// It also finds each Byzantine entry's reverse position (byzRev). Rows
// are sorted, so the occurrences of nb in b's row are contiguous, and the
// j-th is paired with the j-th occurrence of b in nb's row, found by
// binary search; a self-loop entry is its own reverse. This needs H
// symmetric, which Build guarantees and graph.FromCSR checks.
func (w *World) rebuildByzTables(netChanged bool) {
	hOff, hAdj := w.hOff, w.hAdj
	if netChanged || len(w.byzIn) != len(hAdj) {
		w.byzIn = resetSlice(w.byzIn, len(hAdj))
		for i := range w.byzIn {
			w.byzIn[i] = -1
		}
	}
	w.byzList = w.byzList[:0]
	n := len(hOff) - 1
	entries := 0
	for v := 0; v < n; v++ {
		if w.Byz[v] {
			w.byzList = append(w.byzList, int32(v))
			entries += int(hOff[v+1] - hOff[v])
		}
	}
	w.byzRev = slices.Grow(w.byzRev[:0], entries)
	w.byzRow = resetSlice(w.byzRow, n)
	slots := int32(0)
	for _, b := range w.byzList {
		prev := int32(-1)
		var s, first int32
		for e := hOff[b]; e < hOff[b+1]; e++ {
			nb := hAdj[e]
			if nb != prev {
				s = slots
				slots++
				prev = nb
				first = e
			}
			lo, hi := hOff[nb], hOff[nb+1]
			for lo < hi {
				mid := (lo + hi) / 2
				if hAdj[mid] < b {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			r := lo + e - first
			w.byzRev = append(w.byzRev, r)
			w.byzIn[r] = s
			w.byzRow[nb] = true
		}
	}
	w.byzSends = resetSlice(w.byzSends, int(slots))
}

// Close releases the arena's worker pool. The arena can be Reset and
// used again afterwards.
func (w *World) Close() {
	if w.pool != nil {
		w.pool.Close()
	}
	w.pool = nil
}

// --- Read accessors (used by adversaries and reports) ---

// N returns the network size (which honest nodes, of course, do not know).
func (w *World) N() int { return w.Net.H.N() }

// Held returns the color node v currently holds (after the last completed
// round of the current subphase).
func (w *World) Held(v int) int64 { return w.held.Cur()[v] }

// HeldLogAt returns the color node v held after round r of the current
// subphase; r = 0 is the node's own generated color. A round past the
// last completed one reads as v's current held color, and a round
// outside [0, MaxPhase] as 0.
func (w *World) HeldLogAt(v, r int) int64 {
	if r < 0 || r > w.Cfg.MaxPhase {
		return 0
	}
	return w.heldLog[min(r, w.logTop)][v]
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
func (w *World) CoinStream(v int) *rng.Source { return w.colorSrc[v].Clone() }

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
	return w.hAdj[w.hOff[x]:w.hOff[x+1]]
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
