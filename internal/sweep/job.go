package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hgraph"
)

// Job is one fully-specified protocol run: network parameters, fault
// model, adversary strategy, protocol configuration, and every seed that
// run consumes. A Job is plain data — serializable and comparable by
// content hash — so the result store can recognize work it has already
// done across process restarts, and so two sweeps that share cells share
// their results.
type Job struct {
	// Spec names the grid this job came from (informational; not hashed —
	// renaming a spec must not invalidate its results).
	Spec string `json:"-"`
	// Net parameterizes network generation; Net.Seed pins the topology.
	Net hgraph.Params `json:"net"`
	// Delta records the fault exponent that derived ByzCount
	// (informational; ByzCount is authoritative for execution, so Key
	// excludes Delta from the content hash).
	Delta float64 `json:"delta,omitempty"`
	// ByzCount is the number of Byzantine nodes to place (0 = none).
	ByzCount int `json:"byz_count,omitempty"`
	// Placement selects the Byzantine placement strategy by
	// hgraph.PlacementByName ("" = the paper's random placement).
	Placement string `json:"placement,omitempty"`
	// PlaceSeed drives Byzantine placement.
	PlaceSeed uint64 `json:"place_seed,omitempty"`
	// Adversary names the Byzantine strategy per adversary.ByName
	// ("" = none: Byzantine nodes follow the protocol).
	Adversary string `json:"adversary,omitempty"`
	// Algorithm selects the protocol variant.
	Algorithm core.Algorithm `json:"algorithm"`
	// Epsilon is the protocol error parameter (0 = core default).
	Epsilon float64 `json:"epsilon,omitempty"`
	// MaxPhase caps the phase schedule (0 = core default).
	MaxPhase int `json:"max_phase,omitempty"`
	// InjectionThreshold instruments injection-entry recording (see
	// core.Config.InjectionThreshold).
	InjectionThreshold int64 `json:"injection_threshold,omitempty"`
	// RunSeed drives the honest protocol coins.
	RunSeed uint64 `json:"run_seed"`
	// ChurnCrashes/ChurnSeed/ChurnLastPhase configure mid-run crash churn.
	ChurnCrashes   int    `json:"churn_crashes,omitempty"`
	ChurnSeed      uint64 `json:"churn_seed,omitempty"`
	ChurnLastPhase int    `json:"churn_last_phase,omitempty"`
	// FaultModel selects the mid-run churn regime: "" or "crash" schedules
	// permanent crash failures (ChurnCrashes nodes, the classic model);
	// "join" schedules oblivious leave/rejoin churn (JoinFrac·n nodes,
	// core.JoinChurn, arXiv:2204.11951 regime).
	FaultModel string `json:"fault_model,omitempty"`
	// JoinFrac is the fraction of nodes that leave and rejoin under the
	// "join" fault model (0 = none).
	JoinFrac float64 `json:"join_frac,omitempty"`
	// LossProb drops each directed H-edge reception independently with
	// this probability (core.MessageLoss; 0 = reliable links). Composes
	// with either churn regime.
	LossProb float64 `json:"loss_prob,omitempty"`
	// RecordOccupancy instruments the run to record per-phase frontier
	// occupancy (experiment E20). Omitted from the content key when
	// false, so pre-existing job keys are untouched.
	RecordOccupancy bool `json:"record_occupancy,omitempty"`
	// Trial distinguishes repeated draws of the same grid cell.
	Trial int `json:"trial"`

	// Group is the grid-cell index assigned by Spec expansion: all trials
	// of one cell share it, and aggregation folds by it. Not part of the
	// content key — a cell's identity is its parameters, not its position
	// in whatever grid enumerated it.
	Group int `json:"-"`
	// Index is the job's position in the expansion; Run returns outcomes
	// in Index order. Not part of the content key.
	Index int `json:"-"`
}

// Key returns the job's content address: hex SHA-256 over the job's
// canonical JSON encoding, with grid position (Spec/Group/Index) excluded
// and Net normalized via Canonical. Two jobs describing identical work
// have identical keys, which is what lets a resumed or reshaped sweep
// skip cells it has already computed.
func (j Job) Key() string {
	j.Net = j.Net.Canonical()
	// Normalize the spellable defaults so equivalent jobs hash equal, and
	// drop the purely-informational Delta: ByzCount is what executes, so
	// two deltas that floor to the same budget describe identical work.
	j.Delta = 0
	if j.Adversary == "none" {
		j.Adversary = ""
	}
	if j.Placement == "random" {
		j.Placement = ""
	}
	// Normalize the fault-model axes so the hash covers exactly the work
	// Config executes: each churn regime ignores the other's knob, and a
	// join model with nothing joining is identical work to no churn.
	if j.FaultModel == "join" {
		j.ChurnCrashes = 0
		if j.JoinFrac == 0 {
			j.FaultModel = ""
		}
	} else {
		j.FaultModel = ""
		j.JoinFrac = 0
	}
	b, err := json.Marshal(j)
	if err != nil {
		// Job is a fixed struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("sweep: marshal job: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Config materializes the core.Config this job runs with. workers sets
// the per-run simulator parallelism (the scheduler divides the machine
// between concurrent jobs and within-run parallelism).
func (j Job) Config(workers int) core.Config {
	cfg := core.Config{
		Algorithm:               j.Algorithm,
		Epsilon:                 j.Epsilon,
		MaxPhase:                j.MaxPhase,
		Seed:                    j.RunSeed,
		Workers:                 workers,
		InjectionThreshold:      j.InjectionThreshold,
		RecordFrontierOccupancy: j.RecordOccupancy,
	}
	if j.FaultModel == "join" {
		if j.JoinFrac > 0 {
			cfg.Faults = append(cfg.Faults, core.JoinChurn{
				Count:     int(j.JoinFrac * float64(j.Net.N)),
				Seed:      j.ChurnSeed,
				LastPhase: j.ChurnLastPhase,
			})
		}
	} else if j.ChurnCrashes != 0 {
		cfg.Faults = append(cfg.Faults, core.CrashChurn{
			Crashes:   j.ChurnCrashes,
			Seed:      j.ChurnSeed,
			LastPhase: j.ChurnLastPhase,
		})
	}
	if j.LossProb > 0 {
		cfg.Faults = append(cfg.Faults, core.MessageLoss{Prob: j.LossProb})
	}
	return cfg
}

// Label renders a compact human-readable cell descriptor: the axes that
// identify the grid cell, omitting defaults.
func (j Job) Label() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d d=%d", j.Net.N, j.Net.D)
	if j.Delta > 0 {
		fmt.Fprintf(&b, " δ=%g", j.Delta)
	}
	if j.ByzCount > 0 {
		fmt.Fprintf(&b, " B=%d", j.ByzCount)
	}
	if j.Placement != "" && j.Placement != "random" {
		fmt.Fprintf(&b, " place=%s", j.Placement)
	}
	adv := j.Adversary
	if adv == "" {
		adv = "none"
	}
	fmt.Fprintf(&b, " adv=%s alg=%s", adv, j.Algorithm)
	if j.Epsilon > 0 {
		fmt.Fprintf(&b, " ε=%g", j.Epsilon)
	}
	if j.ChurnCrashes > 0 {
		fmt.Fprintf(&b, " churn=%d", j.ChurnCrashes)
	}
	if j.FaultModel == "join" && j.JoinFrac > 0 {
		fmt.Fprintf(&b, " join=%g", j.JoinFrac)
	}
	if j.LossProb > 0 {
		fmt.Fprintf(&b, " loss=%g", j.LossProb)
	}
	return b.String()
}
