package core_test

// batch_test.go pins the batched round engine (batch.go) against the
// scalar engines, per lane, byte-for-byte. The batch engine is only
// allowed to exist because every lane of a batched invocation produces
// the same Result digest as running that lane through core.Run alone:
// the golden grid replays golden_test.go's pinned digests through batched
// lane groups in both frontier modes, and the property suite sweeps a
// randomized grid of lane mixtures (placement, adversary, fault model,
// loss, lane count — including single-lane batches) against fresh scalar
// runs.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/rng"
)

// goldenLaneSpec converts a golden-grid case into a batch lane, matching
// runGoldenCaseMode parameter for parameter.
func goldenLaneSpec(t testing.TB, gc goldenCase, mode core.FrontierMode) core.LaneSpec {
	t.Helper()
	var byz []bool
	if gc.byzCount > 0 {
		byz = hgraph.PlaceByzantine(goldenN, gc.byzCount, rng.New(goldenByzSeed))
	}
	adv := goldenAdversary(t, gc)
	cfg := core.Config{
		Algorithm:      gc.algorithm,
		Seed:           goldenRunSeed,
		Workers:        1,
		Churn:          core.ChurnConfig{Crashes: gc.churn, Seed: goldenRunSeed + 1},
		FrontierRounds: mode,
	}
	if gc.join > 0 {
		cfg.Faults = append(cfg.Faults, core.JoinChurn{Count: gc.join, Seed: goldenRunSeed + 2})
	}
	if gc.loss > 0 {
		cfg.Faults = append(cfg.Faults, core.MessageLoss{Prob: gc.loss})
	}
	return core.LaneSpec{Byz: byz, Adv: adv, Cfg: cfg}
}

// TestBatchGoldenResults groups the golden grid by algorithm (the only
// case field batch lanes must share — adversaries, placements, churn,
// join, and loss all vary within a group) and asserts every lane of the
// batched invocation reproduces its pinned scalar digest, under both the
// frontier and the dense round engine.
func TestBatchGoldenResults(t *testing.T) {
	if *printGolden {
		t.Skip("printing mode")
	}
	net := hgraph.MustNew(hgraph.Params{N: goldenN, D: goldenD, Seed: goldenNetSeed})
	topo := core.NewTopology(net)
	for _, mode := range []struct {
		name string
		fm   core.FrontierMode
	}{{"frontier", core.FrontierOn}, {"dense", core.FrontierOff}} {
		for _, alg := range []core.Algorithm{core.AlgorithmBasic, core.AlgorithmByzantine} {
			var group []goldenCase
			for _, gc := range goldenCases {
				if gc.algorithm == alg {
					group = append(group, gc)
				}
			}
			name := fmt.Sprintf("%s/%v/lanes=%d", mode.name, alg, len(group))
			t.Run(name, func(t *testing.T) {
				specs := make([]core.LaneSpec, len(group))
				for l, gc := range group {
					specs[l] = goldenLaneSpec(t, gc, mode.fm)
				}
				results, err := core.RunBatch(topo, specs)
				if err != nil {
					t.Fatal(err)
				}
				for l, gc := range group {
					if got := resultDigest(t, results[l]); got != gc.digest {
						t.Errorf("lane %d (%s): digest mismatch:\n got %s\nwant %s", l, gc.name, got, gc.digest)
					}
				}
			})
		}
	}
}

// TestBatchGoldenSingleLane replays every golden case as a one-lane batch
// (B=1): the mask-parallel kernel with a single bit set must still be the
// scalar engine bit for bit.
func TestBatchGoldenSingleLane(t *testing.T) {
	if *printGolden {
		t.Skip("printing mode")
	}
	net := hgraph.MustNew(hgraph.Params{N: goldenN, D: goldenD, Seed: goldenNetSeed})
	topo := core.NewTopology(net)
	bw := core.NewBatchWorld()
	defer bw.Close()
	for _, gc := range goldenCases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			results, err := bw.RunTopology(topo, []core.LaneSpec{goldenLaneSpec(t, gc, core.FrontierAuto)})
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(t, results[0]); got != gc.digest {
				t.Errorf("digest mismatch:\n got %s\nwant %s", got, gc.digest)
			}
		})
	}
}

// TestBatchGoldenWorkerInvariant re-runs the batched golden groups with
// parallel sim workers: chunked dispatch with the per-chunk counter fold
// must reproduce the pinned serial digests exactly.
func TestBatchGoldenWorkerInvariant(t *testing.T) {
	if *printGolden {
		t.Skip("printing mode")
	}
	net := hgraph.MustNew(hgraph.Params{N: goldenN, D: goldenD, Seed: goldenNetSeed})
	topo := core.NewTopology(net)
	for _, alg := range []core.Algorithm{core.AlgorithmBasic, core.AlgorithmByzantine} {
		var group []goldenCase
		for _, gc := range goldenCases {
			if gc.algorithm == alg {
				group = append(group, gc)
			}
		}
		t.Run(fmt.Sprintf("%v", alg), func(t *testing.T) {
			specs := make([]core.LaneSpec, len(group))
			for l, gc := range group {
				specs[l] = goldenLaneSpec(t, gc, core.FrontierAuto)
				specs[l].Cfg.Workers = 4
			}
			results, err := core.RunBatch(topo, specs)
			if err != nil {
				t.Fatal(err)
			}
			for l, gc := range group {
				if got := resultDigest(t, results[l]); got != gc.digest {
					t.Errorf("lane %d (%s): digest with 4 sim workers:\n got %s\nwant %s", l, gc.name, got, gc.digest)
				}
			}
		})
	}
}

// TestBatchScalarEquivalenceProperty sweeps a randomized grid of batched
// lane mixtures — placement, adversary, Byzantine count, churn, join,
// loss, per-lane seeds, lane counts from 1 up — and asserts each lane's
// Result is identical, field for field and digest for digest, to a fresh
// scalar core.Run of the same configuration. The arena is reused across
// trials (varying lane counts exercise arena rewind and lane-count
// shrink/grow), and trials alternate frontier modes.
func TestBatchScalarEquivalenceProperty(t *testing.T) {
	placements := []string{"random", "clustered", "spread", "degree", "chain"}
	adversaries := []string{"none", "honest", "inflate", "suppress", "oracle", "topology-liar", "chain-faker", "combo"}
	losses := []float64{0, 0, 0.05, 0.15}
	src := rng.New(0xBA7C4)

	trials := 12
	if testing.Short() {
		trials = 4
	}
	bw := core.NewBatchWorld()
	defer bw.Close()
	for trial := 0; trial < trials; trial++ {
		n := 96 + 32*src.Intn(3)
		netSeed := uint64(4400 + trial)
		net := hgraph.MustNew(hgraph.Params{N: n, D: 8, Seed: netSeed})
		topo := core.NewTopology(net)
		algorithm := core.AlgorithmByzantine
		if src.Intn(3) == 0 {
			algorithm = core.AlgorithmBasic
		}
		mode := core.FrontierOn
		if trial%2 == 1 {
			mode = core.FrontierOff
		}
		lanes := 1 + src.Intn(8)

		specs := make([]core.LaneSpec, lanes)
		labels := make([]string, lanes)
		for l := 0; l < lanes; l++ {
			placement := placements[src.Intn(len(placements))]
			advName := adversaries[src.Intn(len(adversaries))]
			byzCount := src.Intn(5)
			loss := losses[src.Intn(len(losses))]
			cfg := core.Config{
				Algorithm:      algorithm,
				Seed:           netSeed + uint64(100+l*7),
				Workers:        1 + src.Intn(3),
				FrontierRounds: mode,
			}
			switch src.Intn(3) {
			case 1:
				cfg.Churn = core.ChurnConfig{Crashes: 1 + src.Intn(4), Seed: netSeed + uint64(11+l)}
			case 2:
				cfg.Faults = append(cfg.Faults, core.JoinChurn{Count: 1 + src.Intn(6), Seed: netSeed + uint64(13+l)})
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
				byz = pl.Place(net.H, byzCount, rng.New(netSeed+uint64(17+l)))
			}
			adv, ok := adversary.ByName(advName)
			if !ok {
				t.Fatalf("unknown adversary %q", advName)
			}
			specs[l] = core.LaneSpec{Byz: byz, Adv: adv, Cfg: cfg}
			labels[l] = fmt.Sprintf("lane=%d place=%s adv=%s byz=%d loss=%g churn=%d faults=%d",
				l, placement, advName, byzCount, loss, cfg.Churn.Crashes, len(cfg.Faults))
		}

		batched, err := bw.RunTopology(topo, specs)
		if err != nil {
			t.Fatalf("trial=%d: %v", trial, err)
		}
		for l := 0; l < lanes; l++ {
			// Fresh adversary instance: the stateful ones latch per-run state.
			sc := specs[l]
			scalar, err := core.Run(net, sc.Byz, freshAdversary(t, sc.Adv), sc.Cfg)
			if err != nil {
				t.Fatalf("trial=%d %s: scalar: %v", trial, labels[l], err)
			}
			if !reflect.DeepEqual(batched[l], scalar) {
				t.Fatalf("trial=%d n=%d alg=%v mode=%v lanes=%d %s: results diverge:\nbatch  %+v\nscalar %+v",
					trial, n, algorithm, mode, lanes, labels[l], batched[l], scalar)
			}
			if db, ds := resultDigest(t, batched[l]), resultDigest(t, scalar); db != ds {
				t.Fatalf("trial=%d %s: digests diverge: %s vs %s", trial, labels[l], db, ds)
			}
		}
	}
}

// freshAdversary returns a new instance of the same adversary type, since
// stateful adversaries must not be shared between the batched run and its
// scalar oracle.
func freshAdversary(t testing.TB, adv core.Adversary) core.Adversary {
	t.Helper()
	if adv == nil {
		return nil
	}
	for _, name := range adversary.Names() {
		candidate, _ := adversary.ByName(name)
		if reflect.TypeOf(candidate) == reflect.TypeOf(adv) {
			return candidate
		}
	}
	t.Fatalf("no registered adversary of type %T", adv)
	return nil
}
