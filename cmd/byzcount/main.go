// Command byzcount runs the Byzantine counting protocol on a generated
// small-world network and reports per-node estimates of log n.
//
// Usage:
//
//	byzcount -n 2048 -delta 0.75 -adversary inflate -alg byzantine
//	byzcount -n 1024 -placement clustered -adversary chain-faker
//	byzcount -n 4096 -churn 0.05 -trace 20
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	var (
		n         = flag.Int("n", 1024, "network size (hidden from the nodes)")
		d         = flag.Int("d", 8, "H-degree (even, >= 4; the paper assumes >= 8)")
		delta     = flag.Float64("delta", 0.75, "Byzantine tolerance exponent: B = n^(1-delta); 1 disables faults")
		advName   = flag.String("adversary", "honest", "honest | inflate | suppress | topology-liar | chain-faker | combo")
		algName   = flag.String("alg", "byzantine", "basic | byzantine")
		placeName = flag.String("placement", "random", "random | clustered | spread (Byzantine placement)")
		eps       = flag.Float64("epsilon", 0.1, "error parameter ε")
		seed      = flag.Uint64("seed", 1, "run seed")
		trials    = flag.Int("trials", 1, "independent trials")
		churn     = flag.Float64("churn", 0, "fraction of honest nodes to crash-fail mid-run")
		calibrate = flag.Bool("calibrate", false, "show degree-calibrated estimates (extension)")
		traceN    = flag.Int("trace", 0, "print the last N protocol trace events")
	)
	flag.Parse()

	var alg core.Algorithm
	switch *algName {
	case "basic":
		alg = core.AlgorithmBasic
	case "byzantine":
		alg = core.AlgorithmByzantine
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algName)
		os.Exit(2)
	}

	var adv core.Adversary
	for _, a := range adversary.All() {
		if a.Name() == *advName {
			adv = a
			break
		}
	}
	if adv == nil {
		fmt.Fprintf(os.Stderr, "unknown adversary %q\n", *advName)
		os.Exit(2)
	}

	var place hgraph.PlacementFunc
	for _, p := range hgraph.Placements() {
		if p.Name == *placeName {
			place = p
		}
	}
	if place.Place == nil {
		fmt.Fprintf(os.Stderr, "unknown placement %q\n", *placeName)
		os.Exit(2)
	}

	bCount := 0
	if *delta < 1 {
		bCount = hgraph.ByzantineBudget(*n, *delta)
	}
	fmt.Printf("byzcount: n=%d d=%d B=%d (%s) adversary=%s algorithm=%s ε=%g churn=%.0f%%\n\n",
		*n, *d, bCount, place.Name, adv.Name(), alg, *eps, 100**churn)

	var agg metrics.Aggregate
	// One arena reused across trials: per-run state is rewound by Reset
	// rather than reallocated.
	arena := core.NewWorld()
	defer arena.Close()
	for trial := 0; trial < *trials; trial++ {
		s := *seed + uint64(trial)*101
		net, err := hgraph.New(hgraph.Params{N: *n, D: *d, Seed: s})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var byz []bool
		if bCount > 0 {
			byz = place.Place(net.H, bCount, rng.New(s+13))
		}
		var rec *trace.Recorder
		cfg := core.Config{Algorithm: alg, Epsilon: *eps, Seed: s + 29}
		if *traceN > 0 {
			rec = trace.New(1 << 16)
			cfg.Observer = rec
		}
		if *churn > 0 {
			cfg.Faults = []core.FaultModel{core.CrashChurn{Crashes: int(*churn * float64(*n)), Seed: s + 31}}
		}
		res, err := arena.Run(net, byz, adv, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sum := metrics.Summarize(res, metrics.DefaultBand)
		agg.Add(sum)
		fmt.Printf("trial %d: %s\n", trial, sum)
		if trial == 0 {
			printHistogram(res, *calibrate)
			if rec != nil {
				fmt.Printf("\ntrace (%d events total, %d decides):\n%s",
					len(rec.Events())+rec.Dropped(), rec.Count(trace.KindDecide), rec.Dump(*traceN))
			}
		}
	}
	if *trials > 1 {
		fmt.Printf("\nacross %d trials: correct %.3f±%.3f, rounds %.0f±%.0f\n",
			agg.Trials, agg.CorrectFraction.Mean(), agg.CorrectFraction.StdErr(),
			agg.Rounds.Mean(), agg.Rounds.StdErr())
	}
}

// printHistogram renders the estimate distribution of one run.
func printHistogram(res *core.Result, calibrate bool) {
	counts := map[int]int{}
	crashed, undecided := 0, 0
	for v := 0; v < res.N; v++ {
		if res.Byzantine[v] {
			continue
		}
		switch {
		case res.Crashed[v]:
			crashed++
		case res.Estimates[v] == 0:
			undecided++
		default:
			counts[int(res.Estimates[v])]++
		}
	}
	var keys []int
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	fmt.Printf("  estimate histogram (true log2 n = %.2f):\n", res.LogN)
	for _, k := range keys {
		label := fmt.Sprintf("est=%2d", k)
		if calibrate {
			label = fmt.Sprintf("est=%2d → ĉ=%5.2f", k, core.CalibratedEstimate(k, res.D))
		}
		fmt.Printf("    %s  %6d nodes  %s\n", label, counts[k], bar(counts[k], res.HonestCount))
	}
	if crashed > 0 {
		fmt.Printf("    crashed    %6d nodes\n", crashed)
	}
	if undecided > 0 {
		fmt.Printf("    undecided  %6d nodes\n", undecided)
	}
}

func bar(count, total int) string {
	width := count * 50 / total
	out := make([]byte, width)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
