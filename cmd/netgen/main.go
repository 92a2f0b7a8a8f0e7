// Command netgen generates the paper's network models and reports their
// structural properties: degrees, clustering, diameter, expansion, and the
// locally-tree-like fraction. With -pregen it instead fills the
// persistent topology store for a whole sweep grid, so later sweeps pay
// disk reads instead of generation.
//
// Usage:
//
//	netgen -n 2048 -d 8            # H(n,d) and G = H ∪ L
//	netgen -n 2048 -model ws       # Watts–Strogatz reference
//	netgen -pregen -spec grid.json -store ./netstore [-workers 4]
//	                               # pregenerate every distinct topology
//	                               # the spec's grid touches
//	netgen -pregen -n 4096 -seed 7 -store ./netstore
//	                               # pregenerate a single instance
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/hgraph"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/sweep"
)

func main() {
	var (
		n        = flag.Int("n", 2048, "number of nodes")
		d        = flag.Int("d", 8, "H-degree (or 2k for Watts-Strogatz)")
		model    = flag.String("model", "paper", "paper | ws")
		beta     = flag.Float64("beta", 0.1, "Watts-Strogatz rewiring probability")
		seed     = flag.Uint64("seed", 1, "generator seed")
		dotPath  = flag.String("dot", "", "write the H graph in Graphviz DOT to this file")
		edgePath = flag.String("edges", "", "write the H graph as an edge list to this file")
		pregen   = flag.Bool("pregen", false, "fill the topology store instead of describing a network")
		specPath = flag.String("spec", "", "with -pregen: sweep spec whose grid to pregenerate")
		storeDir = flag.String("store", "", "with -pregen: topology store root (default: the REPRO_NETSTORE directory)")
		workers  = flag.Int("workers", 0, "with -pregen: concurrent generations (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *pregen {
		if err := runPregen(*specPath, *storeDir, *workers, hgraph.Params{N: *n, D: *d, Seed: *seed}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var h *graph.Graph
	switch *model {
	case "paper":
		net, err := hgraph.New(hgraph.Params{N: *n, D: *d, Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("H(n=%d, d=%d), lattice radius k=%d\n\n", *n, *d, net.K)
		describe("H", net.H)
		ltlR := hgraph.LTLRadius(*n, *d)
		_, ltl := hgraph.LocallyTreeLike(net.H, ltlR)
		fmt.Printf("  locally tree-like (r=%d): %d / %d (%.2f%%)\n\n", ltlR, ltl, *n, 100*float64(ltl)/float64(*n))
		describe("G = H ∪ L", net.G())
		h = net.H
	case "ws":
		g := hgraph.WattsStrogatz(*n, *d/2, *beta, rng.New(*seed))
		fmt.Printf("Watts-Strogatz(n=%d, k=%d, beta=%.2f)\n\n", *n, *d/2, *beta)
		describe("WS", g)
		h = g
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}

	if *dotPath != "" {
		writeFile(*dotPath, func(f *os.File) error {
			return graphio.WriteDOT(f, h, graphio.DOTOptions{Name: "H", MaxNodes: 2000})
		})
	}
	if *edgePath != "" {
		writeFile(*edgePath, func(f *os.File) error {
			return graphio.WriteEdgeList(f, h)
		})
	}
}

// runPregen fills the topology store with every distinct canonical
// (n, d, k, seed) the spec's grid expands to (or the single fallback
// instance when no spec is given), generating missing entries in
// parallel. Already-present blobs are skipped, so pregen is incremental
// and restartable.
func runPregen(specPath, storeDir string, workers int, fallback hgraph.Params) error {
	var store *graphio.NetStore
	if storeDir != "" {
		var err error
		if store, err = graphio.OpenNetStore(storeDir); err != nil {
			return err
		}
	} else if store = sweep.EnvNetStore(); store == nil {
		return fmt.Errorf("netgen: -pregen needs -store (or REPRO_NETSTORE)")
	}

	var params []hgraph.Params
	seen := map[hgraph.Params]bool{}
	add := func(p hgraph.Params) {
		p = p.Canonical()
		if !seen[p] {
			seen[p] = true
			params = append(params, p)
		}
	}
	if specPath != "" {
		spec, err := sweep.LoadSpec(specPath)
		if err != nil {
			return err
		}
		jobs, err := spec.Jobs()
		if err != nil {
			return err
		}
		for _, j := range jobs {
			add(j.Net)
		}
	} else {
		add(fallback)
	}

	var todo []hgraph.Params
	for _, p := range params {
		if !store.Has(p) {
			todo = append(todo, p)
		}
	}
	fmt.Fprintf(os.Stderr, "pregen: %d distinct topologies, %d already stored, %d to generate\n",
		len(params), len(params)-len(todo), len(todo))

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(todo) {
		workers = len(todo)
	}

	start := time.Now()
	var (
		work = make(chan hgraph.Params)
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
		errs []error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				net, err := hgraph.New(p)
				if err == nil {
					err = store.Save(net, nil)
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("pregen %+v: %w", p, err))
				} else {
					done++
					fmt.Fprintf(os.Stderr, "[%d/%d] n=%d d=%d k=%d seed=%d\n", done, len(todo), p.N, p.D, p.K, p.Seed)
				}
				mu.Unlock()
			}
		}()
	}
	for _, p := range todo {
		work <- p
	}
	close(work)
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	fmt.Fprintf(os.Stderr, "pregen: stored %d topologies in %s (store %s: %d blobs)\n",
		done, time.Since(start).Round(time.Millisecond), store.Dir(), store.Len())
	return nil
}

func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func describe(name string, g *graph.Graph) {
	st := g.Degrees()
	fmt.Printf("%s: %d nodes, %d edges\n", name, g.N(), g.NumEdges())
	fmt.Printf("  degree: min=%d mean=%.2f max=%d\n", st.Min, st.Mean, st.Max)
	fmt.Printf("  connected: %v\n", g.IsConnected())
	fmt.Printf("  clustering coefficient: %.4f\n", g.AvgClustering())
	fmt.Printf("  diameter (2-sweep lower bound): %d\n", g.DiameterLowerBound(4))
	m := spectral.Measure(g, spectral.Options{})
	fmt.Printf("  spectral: λ=%.4f (Ramanujan ref %.4f), gap=%.4f, edge expansion=%.3f, mix bound=%.1f rounds\n\n",
		m.Lambda, m.RamanujanRef, m.Gap, m.EdgeExpansion, m.MixingBound)
}
