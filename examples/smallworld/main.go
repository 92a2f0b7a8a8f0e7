// Small-world structure: why the protocol needs BOTH the expander H and
// the lattice overlay L. Compares clustering (needed for chain
// verification) and expansion/diameter (needed for flooding-time bounds)
// across H, G = H ∪ L, and a Watts–Strogatz reference.
package main

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hgraph"
	"repro/internal/rng"
	"repro/internal/spectral"
)

func main() {
	const n, d = 2048, 8

	net := hgraph.MustNew(hgraph.Params{N: n, D: d, Seed: 21})
	ws := hgraph.WattsStrogatz(n, 4, 0.1, rng.New(22))

	fmt.Printf("n = %d\n\n", n)
	fmt.Printf("%-12s %9s %11s %9s %8s %7s\n",
		"graph", "max deg", "clustering", "diameter", "λ", "gap")
	row("H(n,8)", net.H)
	row(fmt.Sprintf("G (k=%d)", net.K), net.G())
	row("WS(4,0.1)", ws)

	ltlR := hgraph.LTLRadius(n, d)
	_, ltl := hgraph.LocallyTreeLike(net.H, ltlR)
	fmt.Printf("\nlocally tree-like nodes in H (radius %d): %d/%d (%.1f%%)\n",
		ltlR, ltl, n, 100*float64(ltl)/float64(n))

	byz := hgraph.PlaceByzantine(n, hgraph.ByzantineBudget(n, 0.5), rng.New(23))
	chain := hgraph.LongestByzantineChain(net.H, byz, net.K+2)
	fmt.Printf("longest all-Byzantine chain at B=n^0.5 (k=%d): %d nodes\n", net.K, chain)

	fmt.Println("\nH gives the expansion (fast flooding, Byzantine dilution);")
	fmt.Println("L gives the clustering (neighbors can cross-check provenance chains);")
	fmt.Println("the protocol provably needs both (§1.2 of the paper).")
}

func row(name string, g *graph.Graph) {
	m := spectral.Measure(g, spectral.Options{})
	fmt.Printf("%-12s %9d %11.4f %9d %8.3f %7.3f\n",
		name, g.Degrees().Max, g.AvgClustering(), g.DiameterLowerBound(4), m.Lambda, m.Gap)
}
