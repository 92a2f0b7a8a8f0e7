// Package byzcount is the public API of this reproduction of "Network Size
// Estimation in Small-World Networks under Byzantine Faults" (Chatterjee,
// Pandurangan, Robinson; IPDPS 2019).
//
// The library simulates the paper's synchronous small-world network
// G = H ∪ L and runs its Byzantine counting protocol: every honest node
// estimates log₂ n — with n unknown — despite up to O(n^(1−δ))
// full-information Byzantine nodes.
//
// Quick start:
//
//	net, _ := byzcount.NewNetwork(byzcount.Params{N: 1024, D: 8, Seed: 1})
//	res, _ := byzcount.Run(net, nil, nil, byzcount.Config{
//	    Algorithm: byzcount.AlgorithmByzantine, Seed: 2,
//	})
//	sum := byzcount.Summarize(res, byzcount.DefaultBand)
//	fmt.Println(sum)
//
// The deeper layers are importable directly for specialized use:
// internal/core (protocol), internal/adversary (attack strategies),
// internal/hgraph (network model), internal/baseline (comparators),
// internal/spectral (expansion measurement), internal/expt (the
// experiment suite reproducing the paper's claims).
package byzcount

import (
	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/hgraph"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// Re-exported types: the façade keeps example and downstream code on one
// import while the implementation lives in focused internal packages.
type (
	// Params configures network generation (size, degree, lattice radius).
	Params = hgraph.Params
	// Network is a generated H ∪ L small-world instance.
	Network = hgraph.Network
	// Config parameterizes a protocol run.
	Config = core.Config
	// Result is the outcome of a run.
	Result = core.Result
	// Adversary drives the Byzantine nodes (full-information model).
	Adversary = core.Adversary
	// Summary condenses a Result into the paper's headline quantities.
	Summary = metrics.Summary
	// Band is an acceptance interval for estimate/log₂(n) ratios.
	Band = metrics.Band
	// World is a reusable simulation arena: Reset/Run rewind its buffers
	// and worker pool across runs instead of reallocating, and a Network
	// is shared across arenas as is. One-shot callers can ignore it —
	// Run below wraps the same lifecycle.
	World = core.World
	// FaultModel is one pluggable source of runtime faults (crash churn,
	// join/rejoin churn, message loss) composed via Config.Faults.
	FaultModel = core.FaultModel
	// CrashChurn schedules permanent mid-run crash failures (an
	// extension beyond the paper, which crashes nodes only at the
	// topology exchange).
	CrashChurn = core.CrashChurn
	// JoinChurn schedules oblivious leave/rejoin churn (the dynamic
	// regime of arXiv:2204.11951).
	JoinChurn = core.JoinChurn
	// MessageLoss drops each directed reception independently with a
	// configured probability during the flooding rounds.
	MessageLoss = core.MessageLoss
	// FrontierMode selects the round-engine scheduling strategy
	// (Config.FrontierRounds): the quiescence-aware frontier engine by
	// default, or the dense reference loop — byte-identical Results.
	FrontierMode = core.FrontierMode
	// SweepSpec declares a scenario grid (cartesian products over n, d,
	// δ, adversary, placement, algorithm, ε, fault model, churn/join
	// fraction, message loss, trials).
	SweepSpec = sweep.Spec
	// SweepOptions configures sweep execution (workers, cache, store).
	SweepOptions = sweep.Options
	// SweepGroup is one grid cell's aggregate across its trials.
	SweepGroup = sweep.Group
)

// Algorithm selectors.
const (
	// AlgorithmBasic is the paper's Algorithm 1 (no Byzantine defenses).
	AlgorithmBasic = core.AlgorithmBasic
	// AlgorithmByzantine is the paper's Algorithm 2 (topology exchange +
	// chain-attestation verification).
	AlgorithmByzantine = core.AlgorithmByzantine
)

// Round-engine selectors (Config.FrontierRounds).
const (
	// FrontierOn, the default, runs quiescence-aware frontier scheduling.
	FrontierOn = core.FrontierOn
	// FrontierOff forces the dense reference loop.
	FrontierOff = core.FrontierOff
)

// DefaultBand is the constant-factor acceptance band used by the
// experiment suite.
var DefaultBand = metrics.DefaultBand

// NewNetwork generates a small-world network instance per the paper's
// model (§2.1): H(n,d) from d/2 random Hamiltonian cycles, plus lattice
// edges between all pairs within H-distance k = ⌈d/3⌉, which Network.G
// builds on each call.
func NewNetwork(p Params) (*Network, error) { return hgraph.New(p) }

// PlaceByzantine marks `count` uniformly random Byzantine nodes, matching
// the paper's random-placement fault model. seed controls placement.
func PlaceByzantine(n, count int, seed uint64) []bool {
	return hgraph.PlaceByzantine(n, count, rng.New(seed))
}

// ByzantineBudget returns ⌊n^(1−δ)⌋, the paper's fault budget for a given
// tolerance exponent δ ∈ (3/d, 1].
func ByzantineBudget(n int, delta float64) int { return hgraph.ByzantineBudget(n, delta) }

// Run executes one protocol run. byz may be nil (no Byzantine nodes) and
// adv may be nil (protocol-following Byzantine behavior).
//
// Each call constructs and discards a simulation arena; callers looping
// over many runs should allocate one with NewWorld and call its Run
// method, which reuses the arena's state across runs.
func Run(net *Network, byz []bool, adv Adversary, cfg Config) (*Result, error) {
	return core.Run(net, byz, adv, cfg)
}

// NewWorld returns an empty reusable simulation arena. Close it when done.
func NewWorld() *World { return core.NewWorld() }

// NetStore is the persistent content-addressed topology store: generated
// networks serialized under a versioned binary codec, keyed by canonical
// Params. The sweep scheduler's network cache uses one as its disk tier
// (see the REPRO_NETSTORE environment variable, or pregenerate with
// `netgen -pregen`).
type NetStore = graphio.NetStore

// OpenNetStore opens (creating if needed) a topology store rooted at dir.
func OpenNetStore(dir string) (*NetStore, error) { return graphio.OpenNetStore(dir) }

// Summarize computes a run's headline metrics under the given band.
func Summarize(r *Result, band Band) Summary { return metrics.Summarize(r, band) }

// Sweep expands spec into its deterministic job grid and executes it
// through the parallel scheduler, returning per-cell aggregates in grid
// order. Aggregates are identical for any worker count; set opts.Store
// to persist results and resume interrupted grids.
func Sweep(spec SweepSpec, opts SweepOptions) ([]SweepGroup, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	outs, err := sweep.Run(jobs, opts)
	if err != nil {
		return nil, err
	}
	return sweep.Aggregate(outs), nil
}

// EstimateLogN is the one-call convenience entry point: generate a
// network of (hidden) size n, run Algorithm 2 with no Byzantine nodes, and
// return the median honest estimate of log₂ n.
func EstimateLogN(n int, seed uint64) (float64, error) {
	net, err := NewNetwork(Params{N: n, D: 8, Seed: seed})
	if err != nil {
		return 0, err
	}
	res, err := Run(net, nil, nil, Config{Algorithm: AlgorithmByzantine, Seed: seed + 1})
	if err != nil {
		return 0, err
	}
	return Summarize(res, DefaultBand).RatioMedian * res.LogN, nil
}
