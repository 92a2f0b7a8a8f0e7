package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/hgraph"
	"repro/internal/rng"
)

// buildTree builds a rooted tree where the root has d children and every
// internal node has d-1 children, to the given depth. Returns the graph
// and the parent array (parent[root] = -1).
func buildTree(d, depth int) (*graph.Graph, []int32) {
	type level struct{ start, end int }
	var parents []int32
	parents = append(parents, -1) // root = 0
	levels := []level{{0, 1}}
	next := 1
	for l := 1; l <= depth; l++ {
		prev := levels[l-1]
		start := next
		for p := prev.start; p < prev.end; p++ {
			kids := d - 1
			if p == 0 {
				kids = d
			}
			for c := 0; c < kids; c++ {
				parents = append(parents, int32(p))
				next++
			}
		}
		levels = append(levels, level{start, next})
	}
	b := graph.NewBuilder(len(parents))
	for v := 1; v < len(parents); v++ {
		b.AddEdge(v, int(parents[v]))
	}
	return b.Build(), parents
}

// TestDeriveHFromGOnExactTree checks the Lemma 3 subset rules on a graph
// that *is* a tree: the derivation must be exact at the root.
func TestDeriveHFromGOnExactTree(t *testing.T) {
	const d, k = 4, 2
	h, parents := buildTree(d, 2*k)
	g := hgraph.BuildG(h, k)
	ball := DeriveHFromG(g, 0, k)
	if ball.Ambiguous {
		t.Fatal("derivation ambiguous on an exact tree")
	}
	if len(ball.HNeighbors) != d {
		t.Fatalf("derived %d H-neighbors at the root, want %d (%v)", len(ball.HNeighbors), d, ball.HNeighbors)
	}
	for _, u := range ball.HNeighbors {
		if parents[u] != 0 {
			t.Fatalf("derived root H-neighbor %d is not a child of the root", u)
		}
	}
	for child, parent := range ball.Parent {
		if parent == 0 && parents[child] == 0 {
			continue
		}
		if parents[child] != parent {
			t.Fatalf("derived parent of %d is %d, want %d", child, parent, parents[child])
		}
	}
}

// TestDeriveHFromGSucceedsMoreOftenAsNGrows is the statistical Lemma 3
// shape (experiment E4 in miniature): the derivation is exact iff the
// radius-2k ball is shortcut-free, whose probability → 1 as n grows. Use
// d=4 (k=2) so the 2k-ball is small enough for laptop-scale n.
func TestDeriveHFromGSucceedsMoreOftenAsNGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	success := func(n int) float64 {
		net, err := hgraph.New(hgraph.Params{N: n, D: 4, Seed: uint64(n)})
		if err != nil {
			t.Fatal(err)
		}
		g := net.G()
		src := rng.New(42)
		const samples = 150
		matched := 0
		for s := 0; s < samples; s++ {
			v := src.Intn(n)
			ball := DeriveHFromG(g, v, net.K)
			if DerivationMatches(net.H, v, ball) {
				matched++
			}
		}
		return float64(matched) / samples
	}
	small := success(30000)
	large := success(240000)
	if large < 0.85 {
		t.Fatalf("derivation success at n=240k is %v, want >= 0.85", large)
	}
	if large <= small-0.05 {
		t.Fatalf("derivation success did not improve with n: %v -> %v", small, large)
	}
}

// TestDeriverReuseMatchesFreshCalls sweeps every node of a network
// through one reused Deriver and through the package-level function,
// asserting identical output — the arena's stamped membership state must
// rewind completely between calls.
func TestDeriverReuseMatchesFreshCalls(t *testing.T) {
	net, err := hgraph.New(hgraph.Params{N: 400, D: 4, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	g := net.G()
	d := NewDeriver()
	for v := 0; v < 400; v++ {
		reused := d.DeriveHFromG(g, v, net.K)
		fresh := DeriveHFromG(g, v, net.K)
		if reused.Ambiguous != fresh.Ambiguous {
			t.Fatalf("node %d: ambiguity %v vs %v", v, reused.Ambiguous, fresh.Ambiguous)
		}
		if len(reused.HNeighbors) != len(fresh.HNeighbors) {
			t.Fatalf("node %d: %d vs %d derived H-neighbors", v, len(reused.HNeighbors), len(fresh.HNeighbors))
		}
		for i := range fresh.HNeighbors {
			if reused.HNeighbors[i] != fresh.HNeighbors[i] {
				t.Fatalf("node %d: H-neighbors diverge: %v vs %v", v, reused.HNeighbors, fresh.HNeighbors)
			}
		}
		if len(reused.Parent) != len(fresh.Parent) {
			t.Fatalf("node %d: parent maps differ in size", v)
		}
		for c, p := range fresh.Parent {
			if reused.Parent[c] != p {
				t.Fatalf("node %d: parent of %d is %d, want %d", v, c, reused.Parent[c], p)
			}
		}
	}
}

// TestDeriverReuseAllocatesLess pins the point of the arena: a warmed
// Deriver allocates strictly less per call than the fresh path (which
// rebuilds the membership vectors and intersection storage every time);
// only the returned DerivedBall should remain.
func TestDeriverReuseAllocatesLess(t *testing.T) {
	net, err := hgraph.New(hgraph.Params{N: 2000, D: 8, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	g := net.G()
	d := NewDeriver()
	v := 0
	d.DeriveHFromG(g, v, net.K) // warm the slabs
	reused := testing.AllocsPerRun(50, func() {
		v = (v + 17) % 2000
		d.DeriveHFromG(g, v, net.K)
	})
	v = 0
	fresh := testing.AllocsPerRun(50, func() {
		v = (v + 17) % 2000
		DeriveHFromG(g, v, net.K)
	})
	if reused >= fresh {
		t.Fatalf("reused deriver allocates %.1f/call, fresh path %.1f/call — arena buys nothing", reused, fresh)
	}
	// The output (struct, parent map, neighbor slice) is all that should
	// remain on the reused path, give or take map internals.
	if reused > 10 {
		t.Fatalf("reused deriver allocates %.1f/call, want only the returned DerivedBall (<= 10)", reused)
	}
}

func TestDerivationMatchesRejectsAmbiguity(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.Build()
	ball := &DerivedBall{Ambiguous: true}
	if DerivationMatches(g, 0, ball) {
		t.Fatal("ambiguous derivation accepted")
	}
}

func TestDeriveHFromGParentEdgesAreGEdges(t *testing.T) {
	// Structural invariant regardless of tree-likeness: every derived
	// parent relation connects G-adjacent nodes.
	net, err := hgraph.New(hgraph.Params{N: 300, D: 8, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	g := net.G()
	src := rng.New(1)
	for trial := 0; trial < 10; trial++ {
		v := src.Intn(300)
		ball := DeriveHFromG(g, v, net.K)
		for child, parent := range ball.Parent {
			if parent == int32(v) {
				if !g.HasEdge(v, int(child)) {
					t.Fatalf("root %d not G-adjacent to %d", child, v)
				}
				continue
			}
			if !g.HasEdge(int(parent), int(child)) {
				t.Fatalf("derived parent edge (%d,%d) not in G", parent, child)
			}
		}
	}
}
