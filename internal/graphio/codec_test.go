package graphio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hgraph"
)

// codecGrid spans the codec's structural space: default and explicit K,
// several degrees, parallel-edge-bearing small instances.
var codecGrid = []hgraph.Params{
	{N: 16, D: 4, Seed: 3},
	{N: 64, D: 8, Seed: 7},
	{N: 96, D: 8, K: 2, Seed: 701},
	{N: 128, D: 6, K: 1, Seed: 11},
	{N: 200, D: 10, Seed: 13},
}

// TestNetworkCodecRoundTrip pins the codec's core contract: decode(encode(net))
// is structurally identical — network digest, params — and re-encodes to
// the identical bytes, and a blob is exactly the size its header implies.
func TestNetworkCodecRoundTrip(t *testing.T) {
	for _, p := range codecGrid {
		net := hgraph.MustNew(p)
		blob := EncodeNetwork(net)
		if want := blobSize(uint64(p.N), uint64(p.N*p.D)); int64(len(blob)) != want {
			t.Errorf("params %+v: blob is %d bytes, want %d", p, len(blob), want)
		}
		got, err := DecodeNetwork(blob)
		if err != nil {
			t.Fatalf("params %+v: DecodeNetwork: %v", p, err)
		}
		if got.Params != p {
			t.Errorf("params %+v: loaded params %+v", p, got.Params)
		}
		if got.Digest() != net.Digest() {
			t.Errorf("params %+v: loaded network digest differs", p)
		}
		if !bytes.Equal(EncodeNetwork(got), blob) {
			t.Errorf("params %+v: re-encoding is not byte-identical", p)
		}
	}
	net := hgraph.MustNew(hgraph.Params{N: 2048, D: 8, Seed: 1})
	if got := len(EncodeNetwork(net)); got != 90176 || blobSize(2048, 2048*8) != 90176 {
		t.Errorf("n = 2048, d = 8 blob is %d bytes (blobSize %d), want 90176", got, blobSize(2048, 2048*8))
	}
}

// resultDigest mirrors the engine's golden-test canonicalization.
func resultDigest(t *testing.T, res *core.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestStoreRunEquivalence is the round-trip property the store's
// correctness rests on: a protocol run on a store→load→run topology is
// byte-identical (result digest) to a run on the in-memory instance.
func TestStoreRunEquivalence(t *testing.T) {
	store, err := OpenNetStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range codecGrid {
		net := hgraph.MustNew(p)
		if err := store.Save(net, nil); err != nil {
			t.Fatalf("params %+v: save: %v", p, err)
		}
		loadedNet, err := store.Load(p)
		if err != nil {
			t.Fatalf("params %+v: load: %v", p, err)
		}
		if loadedNet.Digest() != net.Digest() {
			t.Fatalf("params %+v: loaded network digest differs", p)
		}

		cfg := core.Config{Algorithm: core.AlgorithmByzantine, Seed: 99, Workers: 1}
		w1, w2 := core.NewWorld(), core.NewWorld()
		defer w1.Close()
		defer w2.Close()
		want, err := w1.Run(net, nil, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w2.Run(loadedNet, nil, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if dg, dw := resultDigest(t, got), resultDigest(t, want); dg != dw {
			t.Errorf("params %+v: run digest differs after store round-trip:\n got %s\nwant %s", p, dg, dw)
		}
	}
}

// TestStoreLoadMissing pins the not-found contract the cache tier keys on.
func TestStoreLoadMissing(t *testing.T) {
	store, err := OpenNetStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(hgraph.Params{N: 32, D: 4, Seed: 1}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing blob: got %v, want ErrNotExist", err)
	}
}

// TestStoreStaleKey pins that a blob copied under the wrong content
// address is rejected instead of served.
func TestStoreStaleKey(t *testing.T) {
	store, err := OpenNetStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	net := hgraph.MustNew(hgraph.Params{N: 32, D: 4, Seed: 1})
	if err := store.Save(net, nil); err != nil {
		t.Fatal(err)
	}
	other := hgraph.Params{N: 32, D: 4, Seed: 2}
	if err := os.Rename(store.Path(net.Params), store.Path(other)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(other); err == nil || !strings.Contains(err.Error(), "holds params") {
		t.Fatalf("stale blob: got %v, want params mismatch", err)
	}
}

// readNetwork reads data as Load reads a file of the stated size, then
// decodes it.
func readNetwork(data []byte, size int) (*hgraph.Network, error) {
	blob, err := readBlob(bytes.NewReader(data), int64(size))
	if err != nil {
		return nil, err
	}
	return DecodeNetwork(blob)
}

// TestReadNetworkRejectsDamage walks the whole corruption space the
// reader promises to survive: truncation at every boundary class, both
// where the stated size is the truncated one and where it is the
// blob's (a file cut short after its size was read), bit flips anywhere
// (the checksum), version skew, flag skew, trailing data, and an
// asymmetric H that passes every other check.
func TestReadNetworkRejectsDamage(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: 24, D: 4, Seed: 5})
	blob := EncodeNetwork(net)

	t.Run("truncation", func(t *testing.T) {
		for _, cut := range []int{0, 3, 7, 40, 59, len(blob) / 2, len(blob) - 1} {
			for _, size := range []int{cut, len(blob)} {
				if _, err := readNetwork(blob[:cut], size); err == nil {
					t.Errorf("truncated at %d bytes, stated size %d: accepted", cut, size)
				}
			}
			if _, err := DecodeNetwork(blob[:cut]); err == nil {
				t.Errorf("truncated at %d bytes: decoded", cut)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		for pos := 0; pos < len(blob); pos += 17 {
			mut := bytes.Clone(blob)
			mut[pos] ^= 0x20
			if _, err := DecodeNetwork(mut); err == nil {
				t.Errorf("bit flip at %d: accepted", pos)
			}
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		mut := bytes.Clone(blob)
		binary.LittleEndian.PutUint16(mut[4:6], CodecVersion+1)
		if _, err := readNetwork(mut, len(mut)); !errors.Is(err, ErrCodecVersion) {
			t.Errorf("version skew: got %v, want ErrCodecVersion", err)
		}
		if _, err := DecodeNetwork(mut); !errors.Is(err, ErrCodecVersion) {
			t.Errorf("version skew: decode got %v, want ErrCodecVersion", err)
		}
	})
	t.Run("flag-skew", func(t *testing.T) {
		mut := bytes.Clone(blob)
		binary.LittleEndian.PutUint16(mut[6:8], 1)
		if _, err := DecodeNetwork(mut); err == nil {
			t.Error("unknown flags: accepted")
		}
	})
	t.Run("trailing-data", func(t *testing.T) {
		mut := append(bytes.Clone(blob), 0)
		for _, size := range []int{len(blob), len(mut)} {
			if _, err := readNetwork(mut, size); err == nil {
				t.Errorf("trailing byte, stated size %d: accepted", size)
			}
		}
		if _, err := DecodeNetwork(mut); err == nil {
			t.Error("trailing byte: decoded")
		}
	})
	t.Run("huge-claimed-length", func(t *testing.T) {
		// A fabricated adjacency length must fail on the size check
		// without allocating the claimed size first.
		mut := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(mut[48:56], 1<<30)
		if _, err := readNetwork(mut, len(mut)); err == nil {
			t.Error("fabricated length: accepted")
		}
	})
	t.Run("asymmetric", func(t *testing.T) {
		// One H entry rewritten in range, its row re-sorted and the CRC
		// recomputed: sizes, ranges, row order and checksum all pass,
		// but the edge has no reverse, which the engine's per-run
		// reverse search depends on.
		mut := bytes.Clone(blob)
		off, adj := net.H.CSR()
		row := slices.Clone(adj[off[0]:off[1]])
		x := int32(1)
		for slices.Contains(row, x) {
			x++
		}
		row[0] = x // node 0 now lists x, whose row does not list 0
		slices.Sort(row)
		at := headerLen + 4*(len(off)+int(off[0]))
		for i, v := range row {
			binary.LittleEndian.PutUint32(mut[at+4*i:], uint32(v))
		}
		binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32.Checksum(mut[:len(mut)-4], crcTable))
		if _, err := DecodeNetwork(mut); err == nil || !strings.Contains(err.Error(), "not symmetric") {
			t.Errorf("asymmetric H: got %v, want a symmetry error", err)
		}
	})
}

// TestStoreLoadChecksSizeFirst pins that Load rejects a file whose size
// disagrees with its header before it reads or allocates the payload: a
// truncated n = 2048 blob must fail having allocated well under the
// blob's size.
func TestStoreLoadChecksSizeFirst(t *testing.T) {
	store, err := OpenNetStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := hgraph.Params{N: 2048, D: 8, Seed: 1}
	blob := EncodeNetwork(hgraph.MustNew(p))
	if err := os.WriteFile(store.Path(p), blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = store.Load(p)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "header implies") {
		t.Fatalf("truncated blob: got %v, want a size error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(blob)/8) {
		t.Errorf("Load allocated %d bytes before rejecting a %d-byte blob's size", alloc, len(blob))
	}
}
