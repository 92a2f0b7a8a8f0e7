package core

import (
	"fmt"
	"math"
)

// Algorithm selects which protocol variant Run executes.
type Algorithm int

const (
	// AlgorithmBasic is Algorithm 1: no topology exchange, no color
	// verification. Correct only absent Byzantine influence.
	AlgorithmBasic Algorithm = iota
	// AlgorithmByzantine is Algorithm 2: topology exchange with
	// crash-on-conflict plus chain-attestation color verification.
	AlgorithmByzantine
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmBasic:
		return "basic"
	case AlgorithmByzantine:
		return "byzantine"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// FrontierMode selects the round-engine scheduling strategy (see
// frontier.go and DESIGN.md §"Round engine").
type FrontierMode int

const (
	// FrontierOn, the default, runs quiescence-aware frontier scheduling:
	// only nodes whose inputs may have changed are stepped each round.
	FrontierOn FrontierMode = iota
	// FrontierOff forces the dense reference loop: every node is stepped
	// every round. Byte-identical Results to FrontierOn, forever — the
	// equivalence suite in frontier_test.go pins it.
	FrontierOff
)

// String implements fmt.Stringer.
func (m FrontierMode) String() string {
	switch m {
	case FrontierOn:
		return "on"
	case FrontierOff:
		return "off"
	default:
		return fmt.Sprintf("FrontierMode(%d)", int(m))
	}
}

// Config parameterizes a protocol run.
type Config struct {
	Algorithm Algorithm
	// Epsilon is the paper's error parameter ε ∈ (0,1): at most an
	// ε-fraction of honest nodes may decide wrongly. Default 0.1.
	Epsilon float64
	// MaxPhase is the simulator's safety cap on phases. Nodes still active
	// past it are reported as undecided. 0 selects 4·log₂(n)+16.
	MaxPhase int
	// Seed drives all honest protocol coins (per-node streams are split
	// from it). The network topology has its own seed in hgraph.Params.
	Seed uint64
	// Workers sets simulator parallelism; 0 selects GOMAXPROCS. The
	// arena owns a pool of that many goroutines, reused across its
	// Resets.
	Workers int
	// RecordPhaseActivity, when set, records how many honest nodes were
	// still active at the start of each phase (used by experiment E6/E11).
	RecordPhaseActivity bool
	// Observer, if non-nil, is called serially after every synchronous
	// round with the full world state (Clock identifies the position).
	// Experiments use it to watch color propagation, e.g. to detect
	// whether Byzantine injections were ever accepted.
	Observer Observer
	// InjectionThreshold, when > 0, instruments the engine to record the
	// round at which a color >= the threshold FIRST enters the honest
	// population in each subphase — the quantity Lemma 16 bounds by k−1.
	// (Later holds are legitimate honest flooding, per Lemma 17.)
	InjectionThreshold int64
	// Faults composes pluggable runtime fault models: each entry
	// contributes scheduled crash/rejoin transitions (CrashChurn,
	// JoinChurn) or per-edge message omission (MessageLoss) to the run.
	// Models are scheduled in slice order; nil entries are ignored. Empty
	// Faults is the paper's static reliable-network regime.
	Faults []FaultModel
	// FrontierRounds selects the round-engine scheduling strategy. The
	// default (FrontierOn) runs the quiescence-aware frontier engine,
	// which skips nodes whose inputs cannot have changed; FrontierOff
	// forces the dense reference loop. Both produce byte-identical
	// Results — the toggle exists so the equivalence is testable forever.
	FrontierRounds FrontierMode
	// RecordFrontierOccupancy, when set, records the fraction of
	// node-rounds actually stepped in each phase (experiment E20). Under
	// FrontierOff every phase records 1.
	RecordFrontierOccupancy bool
}

// Observer receives a serial callback at the end of every round.
type Observer interface {
	RoundEnd(w *World)
}

// PhaseObserver is an optional extension of Observer: implementations are
// additionally called after each phase's decision step (decisions are
// assigned after the phase's last round, so a pure RoundEnd observer would
// see the final phase's deciders only at the next phase — or never, for
// the last phase).
type PhaseObserver interface {
	PhaseEnd(w *World)
}

func (c Config) withDefaults(n int) Config {
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.MaxPhase == 0 {
		c.MaxPhase = int(4*math.Log2(float64(n))) + 16
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Epsilon < 0 || c.Epsilon >= 1 {
		return fmt.Errorf("core: epsilon %v outside [0,1)", c.Epsilon)
	}
	if c.MaxPhase < 0 {
		return fmt.Errorf("core: negative MaxPhase %d", c.MaxPhase)
	}
	if c.Algorithm != AlgorithmBasic && c.Algorithm != AlgorithmByzantine {
		return fmt.Errorf("core: unknown algorithm %d", c.Algorithm)
	}
	if c.FrontierRounds < FrontierOn || c.FrontierRounds > FrontierOff {
		return fmt.Errorf("core: unknown frontier mode %d", int(c.FrontierRounds))
	}
	for _, fm := range c.Faults {
		if fm == nil {
			continue
		}
		if err := fm.Validate(); err != nil {
			return err
		}
	}
	return nil
}
