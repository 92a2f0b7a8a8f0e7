package core

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/hgraph"
	"repro/internal/rng"
)

// metamorphic_test.go checks the engine's relabeling invariance: protocol
// dynamics are a function of network structure and per-node coin streams,
// never of node numbering. Running the same configuration on an
// isomorphic permuted network — with each node's coin stream carried
// along the permutation — must produce the permuted per-node results and
// the identical aggregate digest. A violation means some code path leaks
// node indices into the dynamics (iteration-order dependence, index
// arithmetic in a tie-break, a stray global counter keyed by label).

// permuteGraph relabels g by pi: node v becomes pi[v], multi-edges and
// adjacency multiplicities preserved.
func permuteGraph(t *testing.T, g *graph.Graph, pi []int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			switch {
			case int32(u) < v:
				b.AddEdge(pi[u], pi[int(v)])
			case int32(u) == v:
				b.AddEdge(pi[u], pi[u])
			}
		}
	}
	return b.Build()
}

// permuteNetwork builds the isomorphic relabeled instance of net. Its G
// is derived from the permuted H on first use, like any network's;
// TestMetamorphicPermutedNetworkIsIsomorphic checks that it is net's G
// relabeled.
func permuteNetwork(t *testing.T, net *hgraph.Network, pi []int) *hgraph.Network {
	t.Helper()
	ids := make([]uint64, len(net.IDs))
	for v, id := range net.IDs {
		ids[pi[v]] = id
	}
	return &hgraph.Network{
		Params: net.Params,
		H:      permuteGraph(t, net.H, pi),
		K:      net.K,
		IDs:    ids,
	}
}

// aggregateDigest hashes the order-free run outcome: the sorted estimate
// multiset plus the totals every relabeling must preserve. Message/bit
// counters are deliberately excluded: Algorithm 2's attestation search
// stops at the first chain it finds, so the number of queries it pays
// depends on adjacency iteration order (which relabeling permutes) even
// though the accept/reject decision — and therefore every estimate — does
// not. TestMetamorphicRelabelInvariance asserts the counters separately
// for Algorithm 1, where accounting is search-free.
func aggregateDigest(r *Result) [32]byte {
	est := append([]int32(nil), r.Estimates...)
	slices.Sort(est)
	h := sha256.New()
	for _, e := range est {
		binary.Write(h, binary.LittleEndian, e)
	}
	binary.Write(h, binary.LittleEndian, r.Rounds)
	binary.Write(h, binary.LittleEndian, int64(r.Phases))
	binary.Write(h, binary.LittleEndian, int64(r.CrashedCount))
	binary.Write(h, binary.LittleEndian, int64(r.UndecidedCount))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func TestMetamorphicRelabelInvariance(t *testing.T) {
	cases := []struct {
		name      string
		algorithm Algorithm
		byzCount  int
	}{
		{"basic", AlgorithmBasic, 0},
		{"byzantine", AlgorithmByzantine, 0},
		{"byzantine/honest-byz", AlgorithmByzantine, 5},
	}
	const n = 192
	net := hgraph.MustNew(hgraph.Params{N: n, D: 8, Seed: 501})
	pi := rng.New(502).Perm(n)
	pnet := permuteNetwork(t, net, pi)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var byz, pbyz []bool
			if tc.byzCount > 0 {
				byz = hgraph.PlaceByzantine(n, tc.byzCount, rng.New(503))
				pbyz = make([]bool, n)
				for v, b := range byz {
					pbyz[pi[v]] = b
				}
			}
			cfg := Config{Algorithm: tc.algorithm, Seed: 504, Workers: 1}
			res, err := Run(net, byz, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// The permuted run: same config on the relabeled network, with
			// node pi[v] owning original node v's coin stream (the streams
			// are part of the node identity being relabeled).
			w := NewWorld()
			defer w.Close()
			if err := w.Reset(pnet, pbyz, nil, cfg); err != nil {
				t.Fatal(err)
			}
			for v := 0; v < n; v++ {
				w.colorSrc[pi[v]].SeedSplit(cfg.Seed, uint64(v))
			}
			pres, err := w.run()
			if err != nil {
				t.Fatal(err)
			}

			if res.Rounds != pres.Rounds {
				t.Fatalf("rounds %d != permuted %d", res.Rounds, pres.Rounds)
			}
			for v := 0; v < n; v++ {
				if res.Estimates[v] != pres.Estimates[pi[v]] {
					t.Fatalf("node %d estimate %d != permuted node %d estimate %d",
						v, res.Estimates[v], pi[v], pres.Estimates[pi[v]])
				}
				if res.DecidedAt[v] != pres.DecidedAt[pi[v]] {
					t.Fatalf("node %d decision round differs under relabeling", v)
				}
				if res.Crashed[v] != pres.Crashed[pi[v]] {
					t.Fatalf("node %d crash state differs under relabeling", v)
				}
			}
			if aggregateDigest(res) != aggregateDigest(pres) {
				t.Fatalf("aggregate digests differ under relabeling:\n%x\n%x",
					aggregateDigest(res), aggregateDigest(pres))
			}
			if tc.algorithm == AlgorithmBasic && (res.Messages != pres.Messages || res.Bits != pres.Bits) {
				t.Fatalf("Algorithm 1 communication changed under relabeling: %d/%d bits vs %d/%d",
					res.Messages, res.Bits, pres.Messages, pres.Bits)
			}
		})
	}
}

// TestMetamorphicPermutedNetworkIsIsomorphic sanity-checks the harness
// itself: the permuted instance must be a genuine isomorphic copy.
func TestMetamorphicPermutedNetworkIsIsomorphic(t *testing.T) {
	const n = 96
	net := hgraph.MustNew(hgraph.Params{N: n, D: 8, Seed: 505})
	pi := rng.New(506).Perm(n)
	pnet := permuteNetwork(t, net, pi)
	if pnet.H.NumEdges() != net.H.NumEdges() {
		t.Fatal("edge counts changed under permutation")
	}
	gotOff, gotAdj := pnet.G().CSR()
	wantOff, wantAdj := permuteGraph(t, net.G(), pi).CSR()
	if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
		t.Fatal("the permuted network's G is not net's G relabeled")
	}
	for v := 0; v < n; v++ {
		if net.H.Degree(v) != pnet.H.Degree(pi[v]) {
			t.Fatalf("H degree of %d changed under permutation", v)
		}
		// Adjacency multisets must map exactly.
		want := map[int32]int{}
		for _, nb := range net.H.Neighbors(v) {
			want[int32(pi[int(nb)])]++
		}
		for _, nb := range pnet.H.Neighbors(pi[v]) {
			want[nb]--
		}
		for nb, c := range want {
			if c != 0 {
				t.Fatalf("node %d: neighbor %d multiplicity off by %d", v, nb, c)
			}
		}
	}
}
