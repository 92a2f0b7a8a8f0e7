package core_test

// frontier_test.go is the dense-vs-frontier equivalence suite. The
// frontier engine (frontier.go) is only allowed to exist because it is
// byte-identical to the dense reference loop: these tests pin that across
// the golden grid (exact SHA-256 digests under FrontierOff, matching the
// FrontierOn digests TestGoldenResults checks), and across a randomized
// property grid spanning placements, adversaries, fault models, loss
// probabilities, worker counts, phase caps, ε and the recording options,
// watched by an Observer.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/rng"
)

// TestGoldenResultsFrontierOff replays the full golden grid with the
// dense reference loop. TestGoldenResults runs the same grid with the
// default (frontier) engine; both must hit the digests pinned from the
// seed engine, so an equivalence break in either direction fails loudly.
func TestGoldenResultsFrontierOff(t *testing.T) {
	if *printGolden {
		t.Skip("printing mode")
	}
	net := hgraph.MustNew(hgraph.Params{N: goldenN, D: goldenD, Seed: goldenNetSeed})
	for _, gc := range goldenCases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			res := runGoldenCaseMode(t, net, gc, 1, core.FrontierOff)
			if got := resultDigest(t, res); got != gc.digest {
				t.Errorf("dense-loop digest mismatch:\n got %s\nwant %s", got, gc.digest)
			}
		})
	}
}

// TestFrontierDenseEquivalenceProperty sweeps a randomized grid of
// (placement, adversary, algorithm, fault model, loss probability, worker
// count, phase cap, ε, phase-activity and injection recording)
// configurations and asserts the two engines produce identical Results —
// field-for-field and digest-for-digest — and show an Observer the same
// world after every round and phase. Outside this suite, other packages
// reach the dense loop only through it.
func TestFrontierDenseEquivalenceProperty(t *testing.T) {
	placements := []string{"random", "clustered", "spread", "degree", "chain"}
	adversaries := []string{"none", "honest", "inflate", "suppress", "oracle", "topology-liar", "chain-faker", "combo"}
	losses := []float64{0, 0, 0.05, 0.15} // loss off twice as often as any single prob
	src := rng.New(0xF407)

	trials := 24
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 96 + 32*src.Intn(3)
		netSeed := uint64(900 + trial)
		net := hgraph.MustNew(hgraph.Params{N: n, D: 8, Seed: netSeed})
		placement := placements[src.Intn(len(placements))]
		advName := adversaries[src.Intn(len(adversaries))]
		algorithm := core.AlgorithmByzantine
		if src.Intn(3) == 0 {
			algorithm = core.AlgorithmBasic
		}
		byzCount := src.Intn(5)
		loss := losses[src.Intn(len(losses))]
		workers := 1 + src.Intn(3)

		cfg := core.Config{
			Algorithm:           algorithm,
			Seed:                netSeed + 7,
			Workers:             workers,
			MaxPhase:            []int{0, 0, 4, 9}[src.Intn(4)], // 0: the default cap
			Epsilon:             []float64{0, 0, 0.05, 0.3}[src.Intn(4)],
			RecordPhaseActivity: src.Intn(2) == 0,
		}
		if src.Intn(2) == 0 {
			cfg.InjectionThreshold = adversary.InjectBase
		}
		switch src.Intn(3) {
		case 1:
			cfg.Faults = append(cfg.Faults, core.CrashChurn{Crashes: 1 + src.Intn(4), Seed: netSeed + 11})
		case 2:
			cfg.Faults = append(cfg.Faults, core.JoinChurn{Count: 1 + src.Intn(6), Seed: netSeed + 13})
		}
		if loss > 0 {
			cfg.Faults = append(cfg.Faults, core.MessageLoss{Prob: loss})
		}

		var byz []bool
		if byzCount > 0 {
			pl, ok := hgraph.PlacementByName(placement)
			if !ok {
				t.Fatalf("unknown placement %q", placement)
			}
			byz = pl.Place(net.H, byzCount, rng.New(netSeed+17))
		}

		label := fmt.Sprintf("trial=%d n=%d place=%s adv=%s alg=%s byz=%d loss=%g workers=%d faults=%v maxPhase=%d eps=%g activity=%v inject=%d",
			trial, n, placement, advName, algorithm, byzCount, loss, workers, cfg.Faults,
			cfg.MaxPhase, cfg.Epsilon, cfg.RecordPhaseActivity, cfg.InjectionThreshold)

		runMode := func(mode core.FrontierMode) (*core.Result, string) {
			adv, ok := adversary.ByName(advName)
			if !ok {
				t.Fatalf("unknown adversary %q", advName)
			}
			c := cfg
			c.FrontierRounds = mode
			obs := &worldHasher{h: sha256.New()}
			c.Observer = obs
			res, err := core.Run(net, byz, adv, c)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return res, hex.EncodeToString(obs.h.Sum(nil))
		}
		frontier, frontierSeen := runMode(core.FrontierOn)
		dense, denseSeen := runMode(core.FrontierOff)
		if !reflect.DeepEqual(frontier, dense) {
			t.Fatalf("%s: results diverge:\nfrontier %+v\ndense    %+v", label, frontier, dense)
		}
		if df, dd := resultDigest(t, frontier), resultDigest(t, dense); df != dd {
			t.Fatalf("%s: digests diverge: %s vs %s", label, df, dd)
		}
		if frontierSeen != denseSeen {
			t.Fatalf("%s: the observer saw different worlds", label)
		}
	}
}

// worldHasher is an Observer that hashes the world every honest-node
// accessor shows, after every round and every phase.
type worldHasher struct{ h hash.Hash }

func (o *worldHasher) RoundEnd(w *core.World) { o.record(w, 0) }
func (o *worldHasher) PhaseEnd(w *core.World) { o.record(w, 1) }

func (o *worldHasher) record(w *core.World, at int64) {
	var b [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		o.h.Write(b[:])
	}
	put(at)
	put(w.GlobalRound())
	for v := 0; v < w.N(); v++ {
		crashed, active := int64(0), int64(0)
		if w.IsCrashed(v) {
			crashed = 1
		}
		if w.IsActive(v) {
			active = 1
		}
		put(w.Held(v))
		put(w.OwnColor(v))
		put(int64(w.DecidedPhase(v)))
		put(crashed<<1 | active)
	}
}

// TestFrontierOccupancyRecording checks the E20 instrumentation: the
// frontier engine reports one in-(0,1] fraction per executed phase and
// actually dips below 1 on a quiescent high-phase run, while the dense
// loop, and the frontier engine under message loss, report exactly 1
// everywhere.
func TestFrontierOccupancyRecording(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: 512, D: 8, Seed: 31})
	byz := hgraph.PlaceByzantine(512, 1, rng.New(32))
	cfg := core.Config{
		Algorithm:               core.AlgorithmBasic,
		Seed:                    33,
		Workers:                 1,
		MaxPhase:                14,
		RecordFrontierOccupancy: true,
		FrontierRounds:          core.FrontierOn,
	}
	// The final-round injection timing attack (Lemma 16's entry window at
	// its extreme) keeps the injectors' neighbors active into high phases
	// while the honest flood quiesces — the regime E20 quantifies.
	res, err := core.Run(net, byz, adversary.FinalRoundInflate{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The timing attack keeps the injector's neighbors active to the
	// MaxPhase cap, so one fraction per capped phase must be recorded.
	if len(res.FrontierOccupancy) != cfg.MaxPhase {
		t.Fatalf("occupancy for %d phases, want %d (run should reach the MaxPhase cap)", len(res.FrontierOccupancy), cfg.MaxPhase)
	}
	if res.UndecidedCount == 0 {
		t.Fatal("no stragglers — the high-phase regime is not exercised")
	}
	sawQuiescence := false
	for i, f := range res.FrontierOccupancy {
		if f <= 0 || f > 1 {
			t.Fatalf("phase %d occupancy %v outside (0,1]", i+1, f)
		}
		if f < 0.9 {
			sawQuiescence = true
		}
	}
	if !sawQuiescence {
		t.Fatalf("no phase below 0.9 occupancy: %v — the high-phase regime is not exercised", res.FrontierOccupancy)
	}

	// The dense loop, and the frontier engine under message loss, step
	// every node in every round.
	lossy := cfg
	lossy.Faults = []core.FaultModel{core.MessageLoss{Prob: 0.05}}
	dense := cfg
	dense.FrontierRounds = core.FrontierOff
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{{"dense loop", dense}, {"lossy frontier", lossy}} {
		res, err := core.Run(net, byz, adversary.FinalRoundInflate{}, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FrontierOccupancy) == 0 {
			t.Fatalf("%s: no occupancy recorded", c.name)
		}
		for i, f := range res.FrontierOccupancy {
			if f != 1 {
				t.Fatalf("%s: phase %d occupancy %v, want 1", c.name, i+1, f)
			}
		}
	}
}

// heldLogRecorder wraps an adversary and hashes HeldLogAt(v, r) for every
// node v and every r in -1..MaxPhase+1 at each subphase start and at the
// first Send of each round: the whole held-log surface adversaries read,
// including the 0 outside [0, MaxPhase] and the clamp above the last
// completed round.
type heldLogRecorder struct {
	core.Adversary
	round int
	buf   []byte
	h     hash.Hash
}

func (r *heldLogRecorder) SubphaseStart(w *core.World) {
	r.round = 0
	r.record(w)
	r.Adversary.SubphaseStart(w)
}

func (r *heldLogRecorder) Send(w *core.World, b, v, t int) int64 {
	if t != r.round {
		r.round = t
		r.record(w)
	}
	return r.Adversary.Send(w, b, v, t)
}

func (r *heldLogRecorder) record(w *core.World) {
	r.buf = r.buf[:0]
	for v := 0; v < w.N(); v++ {
		for rr := -1; rr <= w.Cfg.MaxPhase+1; rr++ {
			r.buf = binary.LittleEndian.AppendUint64(r.buf, uint64(w.HeldLogAt(v, rr)))
		}
	}
	r.h.Write(r.buf)
}

// TestHeldLogAtContract pins every HeldLogAt answer an adversary can see
// under crash churn, message loss and chaos attestation. Both round
// engines must produce the same hash, and it must equal the one pinned
// from the engine that kept a node-major log behind a per-node watermark.
func TestHeldLogAtContract(t *testing.T) {
	const want = "5e4cfd44e33a57f2f1bd2e41173f721b50effc5411c4c7d12bbe40bb332e8292"
	net := hgraph.MustNew(hgraph.Params{N: goldenN, D: goldenD, Seed: goldenNetSeed})
	byz := hgraph.PlaceByzantine(goldenN, 3, rng.New(goldenByzSeed))
	for _, mode := range []core.FrontierMode{core.FrontierOn, core.FrontierOff} {
		rec := &heldLogRecorder{Adversary: &adversary.Chaos{Seed: goldenChaosSeed}, h: sha256.New()}
		cfg := core.Config{
			Algorithm:      core.AlgorithmByzantine,
			Seed:           goldenRunSeed,
			FrontierRounds: mode,
			Faults: []core.FaultModel{
				core.CrashChurn{Crashes: 4, Seed: goldenRunSeed + 1},
				core.MessageLoss{Prob: 0.1},
			},
		}
		res, err := core.Run(net, byz, rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ChurnCrashes == 0 || res.DroppedMessages == 0 {
			t.Fatalf("mode %v: %d churn crashes, %d dropped messages: the faults never fired", mode, res.ChurnCrashes, res.DroppedMessages)
		}
		if got := hex.EncodeToString(rec.h.Sum(nil)); got != want {
			t.Errorf("mode %v: HeldLogAt hash\n got %s\nwant %s", mode, got, want)
		}
	}
}
