package core_test

// reuse_test.go pins the arena contract: a World Reset across a
// heterogeneous job sequence — different networks, sizes, Byzantine sets
// (including none after some), adversaries, algorithms, churn, MaxPhase —
// produces results byte-identical to a fresh engine per run. This is the
// regression guard for every piece of state Reset must rewind (held
// boards, logs, slot tables, coin streams, counters, views, crash flags).

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/rng"
)

type reuseJob struct {
	name      string
	net       *hgraph.Network
	byz       []bool
	adversary string
	cfg       core.Config
}

func reuseJobs(t *testing.T) []reuseJob {
	t.Helper()
	net128 := hgraph.MustNew(hgraph.Params{N: 128, D: 8, Seed: 41})
	net96 := hgraph.MustNew(hgraph.Params{N: 96, D: 12, Seed: 42})
	byz128 := hgraph.PlaceByzantine(128, 5, rng.New(43))
	byz96 := hgraph.PlaceByzantine(96, 3, rng.New(44))
	return []reuseJob{
		{name: "byzantine/inflate", net: net128, byz: byz128, adversary: "inflate",
			cfg: core.Config{Algorithm: core.AlgorithmByzantine, Seed: 51}},
		{name: "basic/no-byz-after-byz", net: net128, byz: nil, adversary: "",
			cfg: core.Config{Algorithm: core.AlgorithmBasic, Seed: 52}},
		{name: "other-net/oracle/churn", net: net96, byz: byz96, adversary: "oracle",
			cfg: core.Config{Algorithm: core.AlgorithmByzantine, Seed: 53,
				Faults: []core.FaultModel{core.CrashChurn{Crashes: 4, Seed: 54}}}},
		{name: "back-to-first-net/suppress", net: net128, byz: byz128, adversary: "suppress",
			cfg: core.Config{Algorithm: core.AlgorithmByzantine, Seed: 55, MaxPhase: 12}},
		{name: "phase-activity+injection", net: net96, byz: byz96, adversary: "inflate",
			cfg: core.Config{Algorithm: core.AlgorithmByzantine, Seed: 56,
				RecordPhaseActivity: true, InjectionThreshold: adversary.InjectBase}},
		{name: "repeat-first", net: net128, byz: byz128, adversary: "inflate",
			cfg: core.Config{Algorithm: core.AlgorithmByzantine, Seed: 51}},
	}
}

func TestWorldReuseMatchesFresh(t *testing.T) {
	jobs := reuseJobs(t)
	arena := core.NewWorld()
	defer arena.Close()
	for _, j := range jobs {
		j := j
		t.Run(j.name, func(t *testing.T) {
			adv, ok := adversary.ByName(j.adversary)
			if !ok {
				t.Fatalf("unknown adversary %q", j.adversary)
			}
			got, err := arena.Run(j.net, j.byz, adv, j.cfg)
			if err != nil {
				t.Fatal(err)
			}
			freshAdv, _ := adversary.ByName(j.adversary)
			want, err := core.Run(j.net, j.byz, freshAdv, j.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("reused arena diverged from fresh engine:\nfresh  %v\nreused %v", want, got)
			}
		})
	}
}

// TestWorldReuseSharedTopology runs the same sequence on two arenas
// that share every network, each job on the arena that did not run the
// previous one, as concurrent sweep workers do on cache hits: an arena
// must key its per-network state on the network it is handed, never on
// the run it last did.
func TestWorldReuseSharedTopology(t *testing.T) {
	jobs := reuseJobs(t)
	arenas := [2]*core.World{core.NewWorld(), core.NewWorld()}
	defer arenas[0].Close()
	defer arenas[1].Close()
	for i, j := range jobs {
		j := j
		arena := arenas[i%2]
		t.Run(j.name, func(t *testing.T) {
			adv, _ := adversary.ByName(j.adversary)
			got, err := arena.Run(j.net, j.byz, adv, j.cfg)
			if err != nil {
				t.Fatal(err)
			}
			freshAdv, _ := adversary.ByName(j.adversary)
			want, err := core.Run(j.net, j.byz, freshAdv, j.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("shared-network arena diverged from fresh engine")
			}
		})
	}
}

// initLogReader counts the nonzero HeldLogAt answers its Init sees, over
// every node and every round -1..MaxPhase+1.
type initLogReader struct {
	core.HonestAdversary
	nonzero int
}

func (a *initLogReader) Init(w *core.World) {
	for v := 0; v < w.N(); v++ {
		for r := -1; r <= w.Cfg.MaxPhase+1; r++ {
			if w.HeldLogAt(v, r) != 0 {
				a.nonzero++
			}
		}
	}
}

// TestWorldReuseClearsHeldLog: a run that reaches phase 6 leaves held-log
// rows 0..6 full of colors on its arena (a final-round injector keeps
// its neighbourhood active to the cap). The next run on that arena, on
// the same network, must read the whole log as 0 before its first
// subphase, as a fresh arena would.
func TestWorldReuseClearsHeldLog(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: 256, D: 8, Seed: 41})
	arena := core.NewWorld()
	defer arena.Close()
	first, err := arena.Run(net, hgraph.PlaceByzantine(256, 1, rng.New(12)), adversary.FinalRoundInflate{},
		core.Config{Algorithm: core.AlgorithmBasic, Seed: 71, MaxPhase: 6, RecordPhaseActivity: true})
	if err != nil {
		t.Fatal(err)
	}
	if act := first.ActivePerPhase; len(act) < 6 || act[5] == 0 {
		t.Fatalf("first run's active nodes per phase %v: it never ran phase 6", act)
	}
	spy := &initLogReader{}
	if _, err := arena.Run(net, nil, spy, core.Config{Algorithm: core.AlgorithmByzantine, Seed: 72}); err != nil {
		t.Fatal(err)
	}
	if spy.nonzero != 0 {
		t.Fatalf("Init read %d nonzero held-log entries left by the previous run", spy.nonzero)
	}
}
