package core

import (
	"testing"

	"repro/internal/hgraph"
)

func TestChurnCrashesScheduledNodes(t *testing.T) {
	net, err := hgraph.New(hgraph.Params{N: 1024, D: 8, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, nil, nil, Config{
		Algorithm: AlgorithmByzantine,
		Seed:      83,
		Faults:    []FaultModel{CrashChurn{Crashes: 50, Seed: 84}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChurnCrashes != 50 {
		t.Fatalf("churn crashes = %d, want 50", res.ChurnCrashes)
	}
	if res.CrashedCount != 50 {
		t.Fatalf("crashed count = %d, want 50", res.CrashedCount)
	}
	// A node may decide in an early phase and crash later; its estimate
	// survives (it decided while alive). But any estimate held by a
	// crashed node must have been decided strictly before the run's end,
	// and crashed nodes can never be counted undecided.
	for v := 0; v < res.N; v++ {
		if !res.Crashed[v] {
			continue
		}
		if res.Estimates[v] != 0 && res.DecidedAt[v] >= res.Rounds {
			t.Fatalf("crashed node %d decided at the final round", v)
		}
	}
}

func TestChurnSurvivorsStayAccurate(t *testing.T) {
	net, err := hgraph.New(hgraph.Params{N: 2048, D: 8, Seed: 85})
	if err != nil {
		t.Fatal(err)
	}
	// 10% of the network crash-fails mid-run.
	res, err := Run(net, nil, nil, Config{
		Algorithm: AlgorithmByzantine,
		Seed:      87,
		Faults:    []FaultModel{CrashChurn{Crashes: 200, Seed: 88}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UndecidedCount != 0 {
		t.Fatalf("%d survivors undecided under churn", res.UndecidedCount)
	}
	good, survivors := 0, 0
	for v := 0; v < res.N; v++ {
		if res.Crashed[v] {
			continue
		}
		survivors++
		if ratio, ok := res.Ratio(v); ok && ratio >= 0.15 && ratio <= 3.0 {
			good++
		}
	}
	if f := float64(good) / float64(survivors); f < 0.9 {
		t.Fatalf("survivor accuracy %v under 10%% churn", f)
	}
}

func TestChurnZeroIsNoop(t *testing.T) {
	net, err := hgraph.New(hgraph.Params{N: 256, D: 8, Seed: 89})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(net, nil, nil, Config{Algorithm: AlgorithmBasic, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, nil, nil, Config{Algorithm: AlgorithmBasic, Seed: 91, Faults: []FaultModel{CrashChurn{Crashes: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Estimates {
		if a.Estimates[v] != b.Estimates[v] {
			t.Fatal("zero churn changed results")
		}
	}
}

func TestChurnCapsAtHonestCount(t *testing.T) {
	net, err := hgraph.New(hgraph.Params{N: 64, D: 8, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, nil, nil, Config{
		Algorithm: AlgorithmBasic,
		Seed:      95,
		MaxPhase:  8,
		Faults:    []FaultModel{CrashChurn{Crashes: 1000, Seed: 96}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChurnCrashes > 64 {
		t.Fatalf("churn crashed %d > n", res.ChurnCrashes)
	}
}
