package expt

import (
	"fmt"
	"math"

	"repro/internal/hgraph"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/stats"
)

// E01LocallyTreeLike measures the fraction of locally tree-like nodes in
// H(n,d) against Lemma 1's n − O(n^0.8) envelope.
func E01LocallyTreeLike(sc Scale) *Table {
	t := &Table{
		ID:         "E1",
		Title:      "Locally tree-like nodes in H(n,d)",
		PaperClaim: "Lemma 1/21: w.h.p. at least n − O(n^0.8) nodes of H(n,d) are locally tree-like.",
		Columns:    []string{"n", "d", "radius r", "LTL fraction", "non-LTL count", "n^0.8 envelope"},
		Notes: "At the paper's radius formula r = log n/(10 log d) (clamped to ≥ 1) the " +
			"non-LTL count is driven by parallel edges and in-ball cross edges, Θ(d²) " +
			"in expectation per unit ball — comfortably inside the n^0.8 envelope, and " +
			"the fraction rises with n as the lemma requires.",
	}
	const d = 8
	for ci, n := range sc.Sizes {
		var frac, bad stats.Online
		r := hgraph.LTLRadius(n, d)
		for trial := 0; trial < sc.Trials; trial++ {
			h := hgraph.GenerateH(n, d, rng.New(sc.seedFor(ci, trial)))
			_, count := hgraph.LocallyTreeLike(h, r)
			frac.Add(float64(count) / float64(n))
			bad.Add(float64(n - count))
		}
		t.AddRow(n, d, r, frac.Mean(), bad.Mean(), math.Pow(float64(n), 0.8))
	}
	return t
}

// E02Expansion measures the spectral gap and edge expansion of H(n,d)
// against the Friedman/Ramanujan reference (Lemma 19).
func E02Expansion(sc Scale) *Table {
	t := &Table{
		ID:         "E2",
		Title:      "Expansion of H(n,d)",
		PaperClaim: "Lemma 19 (Friedman): H(n,d) is an expander w.h.p., near-Ramanujan: λ ≈ 2√(d−1)/d.",
		Columns:    []string{"n", "d", "λ (measured)", "2√(d−1)/d (ref)", "spectral gap", "edge expansion h", "mix bound (rounds)"},
		Notes: "λ is the largest non-trivial eigenvalue magnitude of the normalized adjacency " +
			"operator (power iteration); h is a sweep-cut upper bound on the minimum edge " +
			"expansion. The protocol's b log n bound uses h through Observation 7.",
	}
	for _, d := range []int{8, 12, 16} {
		for ci, n := range sc.Sizes {
			var lam, gap, h, mix stats.Online
			var ref float64
			for trial := 0; trial < sc.Trials; trial++ {
				hg := hgraph.GenerateH(n, d, rng.New(sc.seedFor(ci*100+d, trial)))
				m := spectral.Measure(hg, spectral.Options{})
				lam.Add(m.Lambda)
				gap.Add(m.Gap)
				h.Add(m.EdgeExpansion)
				mix.Add(m.MixingBound)
				ref = m.RamanujanRef
			}
			t.AddRow(n, d, lam.Mean(), ref, gap.Mean(), h.Mean(), mix.Mean())
		}
	}
	return t
}

// E03SmallWorld contrasts H, G = H∪L and Watts–Strogatz: clustering
// coefficient (the small-world property the protocol exploits) and
// diameter (which must stay Θ(log n)).
func E03SmallWorld(sc Scale) *Table {
	t := &Table{
		ID:    "E3",
		Title: "Small-world structure: H vs G = H∪L vs Watts–Strogatz",
		PaperClaim: "§2.1: adding the lattice edges L makes G a small-world network — high " +
			"clustering coefficient on top of H's expander structure — while H alone has " +
			"vanishing clustering. (Watts–Strogatz is the inspiration but has unbounded degrees.)",
		Columns: []string{"n", "graph", "avg clustering", "diameter (2-sweep LB)", "max degree"},
		Notes: "G's clustering stays bounded away from 0 as n grows (every node's k/2-ball is a " +
			"clique-ish neighborhood), while H's decays like d/n. Diameters all grow " +
			"logarithmically. WS(k=4, β=0.1) shown for reference.",
	}
	for ci, n := range sc.Sizes {
		seed := sc.seedFor(ci, 0)
		net := hgraph.MustNew(hgraph.Params{N: n, D: 8, Seed: seed})
		ws := hgraph.WattsStrogatz(n, 4, 0.1, rng.New(seed+7))
		t.AddRow(n, "H(n,8)", net.H.AvgClustering(), net.H.DiameterLowerBound(4), net.H.Degrees().Max)
		g := net.G()
		t.AddRow(n, fmt.Sprintf("G (k=%d)", net.K), g.AvgClustering(), g.DiameterLowerBound(4), g.Degrees().Max)
		t.AddRow(n, "WS(4, 0.1)", ws.AvgClustering(), ws.DiameterLowerBound(4), ws.Degrees().Max)
	}
	return t
}
