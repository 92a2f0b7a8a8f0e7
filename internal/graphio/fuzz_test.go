package graphio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/hgraph"
)

// FuzzReadNetwork hammers the binary network codec with arbitrary bytes:
// whatever arrives — truncations, bit flips, version skew, fabricated
// lengths, hostile structure — the reader must return an error or a
// fully valid network, and never panic or balloon memory. Accepted
// inputs must additionally be canonical: re-encoding reproduces the
// input byte-for-byte, so there is exactly one blob per network and a
// "repaired" blob can never alias a different instance.
//
// Run the smoke locally or in CI with:
//
//	go test -fuzz=FuzzReadNetwork -fuzztime=10s -run '^FuzzReadNetwork$' ./internal/graphio
//
// Regressions land in testdata/fuzz/FuzzReadNetwork and replay as
// ordinary test cases.
func FuzzReadNetwork(f *testing.F) {
	for _, p := range []hgraph.Params{
		{N: 8, D: 4, Seed: 1},
		{N: 24, D: 6, K: 2, Seed: 5},
	} {
		net := hgraph.MustNew(p)
		var buf bytes.Buffer
		if err := WriteNetwork(&buf, net, core.NewTopology(net)); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(bytes.Clone(valid))
		f.Add(bytes.Clone(valid[:len(valid)/2])) // payload truncation
		f.Add(bytes.Clone(valid[:37]))           // mid-header truncation

		skew := bytes.Clone(valid)
		binary.LittleEndian.PutUint16(skew[4:6], CodecVersion+1)
		f.Add(skew)

		flip := bytes.Clone(valid)
		flip[len(flip)/3] ^= 0x80
		f.Add(flip)
	}
	f.Add([]byte{})
	f.Add([]byte("BZNT"))

	f.Fuzz(func(t *testing.T, data []byte) {
		net, topo, err := ReadNetworkSized(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		if net == nil || topo == nil {
			t.Fatal("accepted blob returned nil network or topology")
		}
		// Accepted inputs are canonical: encode(decode(data)) == data.
		var buf bytes.Buffer
		if err := WriteNetwork(&buf, net, topo); err != nil {
			t.Fatalf("re-encode of accepted blob failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatal("accepted blob is not canonical: re-encoding differs")
		}
		// The decoded instance must be safe for the engine and for
		// analysis: S and the digest read H at the decoded radius, and
		// the digest builds G from them.
		_ = net.S()
		_ = net.Digest()
	})
}
