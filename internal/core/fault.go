package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
)

// fault.go is the pluggable fault-model layer. The paper states Theorem 1
// for a static network with random Byzantine placement; the successor work
// (Byzantine-Resilient Counting in Networks, arXiv:2204.11951) studies
// dynamic and oblivious fault regimes, and Nesterenko & Tixeuil motivate
// stressing topology discovery under message omission. A FaultModel turns
// those regimes into first-class run parameters: each model contributes
// scheduled crash/rejoin transitions and/or per-edge message omission to a
// run's FaultPlan, and the engine replays the plan during the round loop.
//
// Two invariants the layer preserves:
//
//   - Determinism. Every model draws from value-typed rng.Sources seeded
//     from its own seed (or split from the run seed), and message-loss
//     coins are a stateless hash of (seed, CSR entry, global round) — the
//     same run is byte-identical at any worker count.
//   - The zero-allocation round loop. All schedule state lives in the
//     World's reusable FaultPlan scratch (event slab, permutation buffer,
//     ownership bitmap), and the per-edge loss check is pure arithmetic,
//     so TestRoundLoopZeroAlloc holds with fault models enabled.

// FaultModel is one pluggable source of runtime faults. Implementations
// are plain-data configs (CrashChurn, JoinChurn, MessageLoss); Schedule is
// called once per run, after the arena is Reset and the topology exchange
// has completed, to contribute the model's events to the run's plan.
type FaultModel interface {
	// Name identifies the model in reports and sweep axes.
	Name() string
	// Validate reports configuration errors (called by Config.Validate).
	Validate() error
	// Schedule contributes the model's fault events and loss parameters
	// to the run's plan. Implementations must draw all randomness from
	// seeds they own (or derive from w.Cfg.Seed) so runs stay pure
	// functions of their configuration.
	Schedule(w *World, plan *FaultPlan)
}

// faultKind distinguishes plan events.
type faultKind int8

const (
	faultCrash  faultKind = iota // the node crash-fails (permanently, unless rejoined)
	faultRejoin                  // the node rejoins: clears a crash this plan owns
)

// faultEvent is one scheduled transition. seq preserves insertion order
// within a phase so the replay matches the legacy per-phase append order;
// rejoinable marks a crash a later RejoinAt may undo (a leave), as
// opposed to a permanent crash.
type faultEvent struct {
	phase      int32
	seq        int32
	kind       faultKind
	rejoinable bool
	node       int32
}

// FaultPlan is the per-run fault schedule, built by the FaultModels'
// Schedule calls and replayed at phase starts. It lives in the World as
// reusable scratch: rewinding it between runs touches no allocator once
// the slabs reach steady-state size.
type FaultPlan struct {
	events []faultEvent
	cursor int

	// Message omission: a reception on CSR entry e in global round r is
	// dropped iff omitCoin(lossSeed, e, r) < lossThresh.
	lossThresh uint64
	lossSeed   uint64

	// down[v] marks nodes down from a rejoinable leave (LeaveAt): only
	// those may be rejoined. A node that crashed itself in the exchange,
	// or that a permanent CrashAt claimed — before or during its absence —
	// stays down even if a churn model scheduled a rejoin for it.
	down []bool

	// Reusable scratch for the scheduling helpers below.
	honest []int32
	perm   []int32
}

// reset rewinds the plan for a new run on an n-node network.
func (p *FaultPlan) reset(n int) {
	p.events = p.events[:0]
	p.cursor = 0
	p.lossThresh = 0
	p.lossSeed = 0
	p.down = resetSlice(p.down, n)
}

// CrashAt schedules node v to crash-fail permanently at the start of
// phase. A permanent crash landing on a node that is temporarily down
// cancels the node's pending rejoin: permanence wins regardless of the
// order the schedules drew their phases.
func (p *FaultPlan) CrashAt(phase, v int) {
	p.events = append(p.events, faultEvent{phase: int32(phase), seq: int32(len(p.events)), kind: faultCrash, node: int32(v)})
}

// LeaveAt schedules node v to go down at the start of phase, eligible for
// a later RejoinAt. A leave landing on an already-crashed node is a
// no-op (the earlier crash keeps its semantics).
func (p *FaultPlan) LeaveAt(phase, v int) {
	p.events = append(p.events, faultEvent{phase: int32(phase), seq: int32(len(p.events)), kind: faultCrash, rejoinable: true, node: int32(v)})
}

// RejoinAt schedules node v to rejoin at the start of phase. The rejoin
// fires only if the node is down from a LeaveAt of this plan and no
// permanent crash (exchange or CrashAt) has claimed it.
func (p *FaultPlan) RejoinAt(phase, v int) {
	p.events = append(p.events, faultEvent{phase: int32(phase), seq: int32(len(p.events)), kind: faultRejoin, node: int32(v)})
}

// SetLoss configures per-edge message omission: each directed reception is
// independently dropped with probability prob. Later calls override.
func (p *FaultPlan) SetLoss(prob float64, seed uint64) {
	switch {
	case prob <= 0:
		p.lossThresh = 0
	case prob >= 1:
		p.lossThresh = math.MaxUint64
	default:
		p.lossThresh = uint64(prob * (1 << 64))
	}
	p.lossSeed = seed
}

// seal orders the events for replay: by phase, insertion order within a
// phase (the order the legacy map-based schedule appended and replayed).
func (p *FaultPlan) seal() {
	slices.SortFunc(p.events, func(a, b faultEvent) int {
		if a.phase != b.phase {
			return int(a.phase - b.phase)
		}
		return int(a.seq - b.seq)
	})
}

// HonestNodes fills the plan's scratch with the indices of the non-
// Byzantine nodes and returns it (valid until the next scheduling call).
func (p *FaultPlan) HonestNodes(w *World) []int32 {
	p.honest = p.honest[:0]
	for v, b := range w.Byz {
		if !b {
			p.honest = append(p.honest, int32(v))
		}
	}
	return p.honest
}

// SampleInto draws a uniform m-subset of [0, n) using the plan's reusable
// permutation scratch. The draw sequence reproduces rng.Source.Sample
// exactly (including its small-m virtual-shuffle branch), so schedules
// built through the plan are byte-identical to the legacy per-run
// allocation they replaced.
func (p *FaultPlan) SampleInto(src *rng.Source, n, m int) []int32 {
	if m < 0 || m > n {
		panic("core: fault sample needs 0 <= m <= n")
	}
	if cap(p.perm) < n {
		p.perm = make([]int32, n)
	}
	perm := p.perm[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	if m*8 < n {
		// Forward partial Fisher–Yates: the array realization of Sample's
		// map-based virtual shuffle (same Intn sequence, same outputs).
		for i := 0; i < m; i++ {
			j := i + src.Intn(n-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
	} else {
		// Full backward shuffle, as Sample's Perm branch draws it.
		for i := n - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	return perm[:m]
}

// omitCoin is the stateless per-(edge, round) loss coin: a SplitMix64-style
// finalizer over the seed and coordinates. Pure arithmetic — deterministic
// at any worker count and free of allocation or shared state.
func omitCoin(seed, e, r uint64) uint64 {
	x := seed + e*0x9e3779b97f4a7c15 + r*0xd1342543de82ef95
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dropRecv reports whether the reception on CSR entry e is omitted in the
// current global round. Callers gate on w.plan.lossThresh != 0 so the
// reliable path pays one load and compare.
func (w *World) dropRecv(e int32) bool {
	return omitCoin(w.plan.lossSeed, uint64(e), uint64(w.globalRound)) < w.plan.lossThresh
}

// --- Concrete models ---

// CrashChurn schedules permanent mid-run crash failures: Crashes honest
// nodes, drawn uniformly, stop participating at the starts of uniform
// phases in [2, LastPhase]. This extends the paper, which handles
// crashes only at the exchange; estimation must survive on the
// remaining expander (experiment E15).
type CrashChurn struct {
	// Crashes is how many honest nodes crash-fail during the run.
	Crashes int
	// Seed drives victim and timing selection.
	Seed uint64
	// LastPhase bounds the phases at which crashes may fire (phases
	// 2..LastPhase); 0 selects 6.
	LastPhase int
}

// Name implements FaultModel.
func (CrashChurn) Name() string { return "crash" }

// Validate implements FaultModel.
func (m CrashChurn) Validate() error {
	if m.Crashes < 0 {
		return fmt.Errorf("core: negative churn crashes %d", m.Crashes)
	}
	return nil
}

// Schedule implements FaultModel.
func (m CrashChurn) Schedule(w *World, plan *FaultPlan) {
	if m.Crashes <= 0 {
		return
	}
	last := m.LastPhase
	if last == 0 {
		last = 6
	}
	if last < 2 {
		last = 2
	}
	var src rng.Source
	src.Seed(m.Seed + 0xC4A5)
	honest := plan.HonestNodes(w)
	count := m.Crashes
	if count > len(honest) {
		count = len(honest)
	}
	for _, idx := range plan.SampleInto(&src, len(honest), count) {
		phase := 2 + src.Intn(last-1)
		plan.CrashAt(phase, int(honest[idx]))
	}
}

// JoinChurn schedules oblivious leave/rejoin churn in the regime of the
// successor paper (arXiv:2204.11951): Count honest nodes leave (crash) at
// uniform phases in [2, LastPhase] and rejoin after a short uniform
// downtime, resuming the protocol where the schedule stands. The schedule
// is oblivious — fixed by the seed before the run, independent of
// execution — matching that paper's oblivious-adversary churn model. A
// node whose run ends (or whose exchange crash pre-empted the scheduled
// leave) before its rejoin phase stays down.
type JoinChurn struct {
	// Count is how many honest nodes go through a leave/rejoin cycle.
	Count int
	// Seed drives victim, leave-phase, and downtime selection.
	Seed uint64
	// LastPhase bounds the leave phases (2..LastPhase); 0 selects 6.
	LastPhase int
	// Downtime bounds how many phases a node stays down (uniform in
	// [1, Downtime]); 0 selects 2.
	Downtime int
}

// Name implements FaultModel.
func (JoinChurn) Name() string { return "join" }

// Validate implements FaultModel.
func (m JoinChurn) Validate() error {
	if m.Count < 0 {
		return fmt.Errorf("core: negative join-churn count %d", m.Count)
	}
	if m.Downtime < 0 {
		return fmt.Errorf("core: negative join-churn downtime %d", m.Downtime)
	}
	return nil
}

// Schedule implements FaultModel.
func (m JoinChurn) Schedule(w *World, plan *FaultPlan) {
	if m.Count <= 0 {
		return
	}
	last := m.LastPhase
	if last == 0 {
		last = 6
	}
	if last < 2 {
		last = 2
	}
	down := m.Downtime
	if down <= 0 {
		down = 2
	}
	var src rng.Source
	src.Seed(m.Seed + 0x10ABE)
	honest := plan.HonestNodes(w)
	count := m.Count
	if count > len(honest) {
		count = len(honest)
	}
	for _, idx := range plan.SampleInto(&src, len(honest), count) {
		leave := 2 + src.Intn(last-1)
		back := leave + 1 + src.Intn(down)
		plan.LeaveAt(leave, int(honest[idx]))
		plan.RejoinAt(back, int(honest[idx]))
	}
}

// MessageLoss drops each directed H-edge reception independently with
// probability Prob during the flooding rounds: the omission fault regime.
// Senders still pay transmission cost (the message is lost in transit,
// not suppressed), and the pre-phase topology exchange is assumed
// reliable — it is constant-round, so retransmission hides omission there
// (see DESIGN §1).
type MessageLoss struct {
	// Prob is the per-reception omission probability in [0, 1].
	Prob float64
	// Seed drives the loss coins; 0 derives one from the run seed, so
	// trials with different run seeds see different loss patterns.
	Seed uint64
}

// Name implements FaultModel.
func (MessageLoss) Name() string { return "loss" }

// Validate implements FaultModel.
func (m MessageLoss) Validate() error {
	if m.Prob < 0 || m.Prob > 1 {
		return fmt.Errorf("core: message-loss probability %v outside [0,1]", m.Prob)
	}
	return nil
}

// Schedule implements FaultModel.
func (m MessageLoss) Schedule(w *World, plan *FaultPlan) {
	if m.Prob <= 0 {
		return
	}
	seed := m.Seed
	if seed == 0 {
		seed = w.Cfg.Seed ^ 0x10_55C0_1D5
	}
	plan.SetLoss(m.Prob, seed)
}

// scheduleFaults rewinds the plan and lets every Config.Faults model
// contribute, in order. Replays happen via applyFaults at phase starts.
func (w *World) scheduleFaults() {
	w.plan.reset(w.N())
	for _, fm := range w.Cfg.Faults {
		if fm != nil {
			fm.Schedule(w, &w.plan)
		}
	}
	w.plan.seal()
}

// applyFaults replays the plan's transitions scheduled at or before the
// start of the given phase.
func (w *World) applyFaults(phase int) {
	p := &w.plan
	for p.cursor < len(p.events) && p.events[p.cursor].phase <= int32(phase) {
		ev := p.events[p.cursor]
		p.cursor++
		v := ev.node
		switch ev.kind {
		case faultCrash:
			if !w.crashed[v] {
				w.crashed[v] = true
				w.churnCrashes++
				p.down[v] = ev.rejoinable
			} else if !ev.rejoinable {
				// Permanent crash on a temporarily-down node: the pending
				// rejoin dies with it.
				p.down[v] = false
			}
		case faultRejoin:
			if p.down[v] {
				p.down[v] = false
				w.crashed[v] = false
				w.rejoins++
			}
		}
	}
}
