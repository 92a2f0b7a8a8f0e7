package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/hgraph"
	"repro/internal/rng"
)

// FuzzClaimedBallCheck checks the exchange's crash rule against
// fullBallCheck on small networks (n 12–200, d 4–8, k 1–4) whose
// Byzantine nodes tell the claims a script of fuzzer bytes writes. The
// script places the Byzantine nodes, each at a random node or beside the
// previous one, and gives each node one lie: a rewired edge, a reordered
// row, an out-of-range ID, a duplicate entry, a wrong length, or a fake
// edge to another Byzantine node that both ends confirm. Every honest
// node must crash exactly when the full check rejects what it heard.
func FuzzClaimedBallCheck(f *testing.F) {
	f.Add(uint64(1), uint8(100), uint8(2), uint8(2), uint8(0), []byte{5, 1, 3, 5, 7, 9, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(2), uint8(188), uint8(2), uint8(1), uint8(1), []byte{7, 0, 3, 5, 7, 9, 11, 13, 6, 1, 6, 2, 6, 3, 6, 4})
	f.Add(uint64(3), uint8(40), uint8(1), uint8(3), uint8(2), []byte{3, 10, 40, 60, 3, 0, 1, 4, 0, 2, 5, 3})
	f.Add(uint64(4), uint8(0), uint8(0), uint8(0), uint8(0), []byte{2, 2, 5, 2, 1, 1, 7, 0, 1})
	f.Add(uint64(5), uint8(150), uint8(2), uint8(2), uint8(3), []byte{9, 1, 3, 3, 3, 3, 3, 3, 3, 3, 2, 0, 90, 4, 1, 2, 6, 0, 7, 3, 4})
	f.Fuzz(func(t *testing.T, seed uint64, rawN, rawD, rawK, quiet uint8, script []byte) {
		d := 4 + 2*int(rawD%3)
		n := 12 + int(rawN)%189
		k := 1 + int(rawK%4)
		net, err := hgraph.New(hgraph.Params{N: n, D: d, K: k, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		h := net.H
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := int(script[0])
			script = script[1:]
			return b
		}

		byz := make([]bool, n)
		var byzIdx []int
		for c := 1 + next()%min(12, n/3); len(byzIdx) < c; {
			x := next()
			if p := len(byzIdx); p > 0 && x&1 == 1 {
				x = int(h.Neighbors(byzIdx[p-1])[(x>>1)%d])
			} else {
				x = (x >> 1) * 7919 % n
			}
			if byz[x] {
				x = (x + 1) % n // a repeated pick takes the next node
				if byz[x] {
					break
				}
			}
			byz[x] = true
			byzIdx = append(byzIdx, x)
		}

		claims := map[int][]int32{}
		row := func(b int) []int32 {
			if c, ok := claims[b]; ok {
				return c
			}
			return slices.Clone(h.Neighbors(b))
		}
		for _, b := range byzIdx {
			r := row(b)
			j := next() % d
			switch next() % 8 {
			case 0: // the truth
				continue
			case 1: // reordered
				slices.Reverse(r)
				r[0], r[j] = r[j], r[0]
			case 2: // a rewired edge to any node
				r[j] = int32(next() * 131 % n)
			case 3: // an ID that names no node
				r[j] = []int32{-1, int32(n), int32(n + next()), math.MinInt32, math.MaxInt32}[next()%5]
			case 4: // a duplicate, hiding the entry it overwrites
				r[j] = r[next()%d]
			case 5: // a wrong length
				if m := next() % (2 * d); m < d {
					r = r[:m]
				} else {
					r = append(r, r[:m-d+1]...)
				}
			case 6, 7: // a fake edge to another Byzantine node, confirmed by both
				c := byzIdx[next()%len(byzIdx)]
				r[j] = int32(c)
				if rc := row(c); len(rc) > 0 { // c may have claimed an empty row
					rc[next()%len(rc)] = int32(b)
					claims[c] = rc
				}
			}
			claims[b] = r
		}
		// A liar tells a victim the truth with probability (quiet%4)/4.
		lie := func(b, v int) []int32 {
			if rng.Split(seed, uint64(b*n+v)).Intn(4) < int(quiet%4) {
				return nil
			}
			return claims[b]
		}

		cfg := Config{Algorithm: AlgorithmByzantine, Seed: seed}.withDefaults(n)
		adv := &funcLiar{lie: lie}
		w := newWorld(net, byz, adv, cfg)
		defer w.Close()
		adv.Init(w)
		w.runExchange()
		for v := 0; v < n; v++ {
			if byz[v] {
				continue
			}
			heard := heardClaims(h, k, v, byz, lie)
			ok := len(heard) == 0
			if !ok {
				ok = fullBallCheck(h, k, d, v, heard).ok
			}
			if w.crashed[v] == ok {
				t.Fatalf("n=%d d=%d k=%d: victim %d crashed=%v, full check accepts=%v (claims %v)",
					n, d, k, v, w.crashed[v], ok, heard)
			}
		}
	})
}
