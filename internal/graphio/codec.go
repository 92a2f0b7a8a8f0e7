package graphio

// codec.go is the versioned binary network codec behind the persistent
// topology store: one self-contained blob per generated instance holding
// the hgraph.Network's state (params, H, IDs) and the engine's
// precomputed core.Topology tables (the reverse-edge index), so a store
// hit skips generation and table construction. The lattice network G =
// H ∪ L is derived from H and never stored: the engine needs only its
// adjacency length, which a loaded network counts from H on first use
// (hgraph.Network.S). An n = 2048, d = 8 blob is 155,712 bytes.
//
// Format v3, all little-endian:
//
//	magic   [4]byte  "BZNT"
//	version u16      CodecVersion
//	flags   u16      reserved, must be zero
//	params  4×u64    N, D, K, Seed (as generated; K may be 0 = default)
//	netK    u64      resolved lattice radius
//	hLen    u64      len(H adjacency)
//	payload          H offsets (N+1 × i32), H adj (hLen × i32),
//	                 IDs (N × u64), rev (hLen × i32)
//	crc     u32      CRC-32C (Castagnoli) over everything above
//
// v3 is v2 without G's length field and its optional G section.
//
// The reader is fuzzed (FuzzReadNetwork): truncation, bit flips, version
// skew, and fabricated lengths must produce errors, never panics or
// unbounded allocation — the header's implied size must equal the
// blob's real size before anything is allocated, and every structural
// invariant is re-validated (graph.FromCSR, core.TopologyFromRev) before
// anything is handed to the engine.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hgraph"
)

// CodecVersion is the current binary format version. Bump it on any
// format change: the store namespaces its files by version, so old blobs
// are simply never opened rather than misparsed.
const CodecVersion = 3

var netMagic = [4]byte{'B', 'Z', 'N', 'T'}

// headerLen is the encoded header size: magic, version, flags and six
// u64 fields.
const headerLen = 4 + 2 + 2 + 6*8

// maxCodecNodes caps the node count a blob may claim, far above any
// simulated scale but low enough that header-derived allocations stay
// sane even before truncation is detected.
const maxCodecNodes = 1 << 28

// ErrCodecVersion marks a blob written by a different codec version.
var ErrCodecVersion = errors.New("graphio: network blob codec version mismatch")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteNetwork encodes net (and its engine tables; topo may be nil to
// derive them here) to w in the binary codec format.
func WriteNetwork(w io.Writer, net *hgraph.Network, topo *core.Topology) error {
	if topo == nil {
		topo = core.NewTopology(net)
	} else if topo.Net != net {
		return fmt.Errorf("graphio: topology belongs to a different network")
	}
	hOff, hAdj := net.H.CSR()

	crc := crc32.New(crcTable)
	out := io.MultiWriter(w, crc)

	var hdr [headerLen]byte
	copy(hdr[0:4], netMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], CodecVersion)
	binary.LittleEndian.PutUint16(hdr[6:8], 0)
	for i, v := range []uint64{
		uint64(net.Params.N), uint64(net.Params.D), uint64(net.Params.K),
		net.Params.Seed, uint64(net.K), uint64(len(hAdj)),
	} {
		binary.LittleEndian.PutUint64(hdr[8+8*i:], v)
	}
	if _, err := out.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, encodeChunk*4)
	for _, s := range [][]int32{hOff, hAdj} {
		if err := writeI32s(out, s, buf); err != nil {
			return err
		}
	}
	if err := writeU64s(out, net.IDs, buf); err != nil {
		return err
	}
	if err := writeI32s(out, topo.Rev(), buf); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// encodeChunk is the element count per encode/decode buffer pass.
const encodeChunk = 16 * 1024

func writeI32s(w io.Writer, s []int32, buf []byte) error {
	for len(s) > 0 {
		n := min(len(s), encodeChunk)
		for i, v := range s[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		s = s[n:]
	}
	return nil
}

func writeU64s(w io.Writer, s []uint64, buf []byte) error {
	for len(s) > 0 {
		n := min(len(s), encodeChunk/2)
		for i, v := range s[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		s = s[n:]
	}
	return nil
}

// crcReader tees everything read through a running CRC-32C.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.crc.Write(p[:n])
	}
	return n, err
}

// ReadNetworkSized decodes a network blob written by WriteNetwork, of
// size bytes in total (the store stats its files), returning the network
// and its reassembled engine tables. The header's implied size must
// match size exactly — rejecting length lies before any allocation —
// which licenses allocating every array at its final size. Every failure
// mode of a damaged blob — truncation, flipped bits, version skew,
// trailing garbage, fabricated structure — returns an error; the
// function never panics on any input. This is the store's hot path; a
// disk hit's cost is mostly this function.
func ReadNetworkSized(r io.Reader, size int64) (*hgraph.Network, *core.Topology, error) {
	if size < 0 {
		return nil, nil, fmt.Errorf("graphio: negative blob size")
	}
	cr := &crcReader{r: r, crc: crc32.New(crcTable)}

	var hdr [headerLen]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("graphio: network blob header: %w", err)
	}
	if [4]byte(hdr[0:4]) != netMagic {
		return nil, nil, fmt.Errorf("graphio: bad network blob magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != CodecVersion {
		return nil, nil, fmt.Errorf("%w: blob v%d, codec v%d", ErrCodecVersion, v, CodecVersion)
	}
	if f := binary.LittleEndian.Uint16(hdr[6:8]); f != 0 {
		return nil, nil, fmt.Errorf("graphio: unknown network blob flags %#x", f)
	}
	var fields [6]uint64
	for i := range fields {
		fields[i] = binary.LittleEndian.Uint64(hdr[8+8*i:])
	}
	n, d, k, seed := fields[0], fields[1], fields[2], fields[3]
	netK, hLen := fields[4], fields[5]
	if n < 3 || n > maxCodecNodes {
		return nil, nil, fmt.Errorf("graphio: network blob claims %d nodes", n)
	}
	p := hgraph.Params{N: int(n), D: int(d), K: int(k), Seed: seed}
	if d > uint64(maxCodecNodes) || k > uint64(maxCodecNodes) {
		return nil, nil, fmt.Errorf("graphio: network blob params out of range")
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if netK != uint64(p.Canonical().K) {
		return nil, nil, fmt.Errorf("graphio: blob lattice radius %d does not match params", netK)
	}
	if hLen >= 1<<31 {
		return nil, nil, fmt.Errorf("graphio: network blob claims oversized adjacency")
	}
	// The header's implied size must match the real one, after which
	// every length is proven backed by real bytes.
	if want := blobSize(n, hLen); want != size {
		return nil, nil, fmt.Errorf("graphio: network blob is %d bytes, header implies %d", size, want)
	}

	buf := make([]byte, 8*min(max(n, hLen)+1, encodeChunk))
	hOff, err := readI32s(cr, int(n)+1, buf)
	if err != nil {
		return nil, nil, err
	}
	hAdj, err := readI32s(cr, int(hLen), buf)
	if err != nil {
		return nil, nil, err
	}
	ids, err := readU64s(cr, int(n), buf)
	if err != nil {
		return nil, nil, err
	}
	rev, err := readI32s(cr, int(hLen), buf)
	if err != nil {
		return nil, nil, err
	}

	want := cr.crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, nil, fmt.Errorf("graphio: network blob checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, nil, fmt.Errorf("graphio: network blob checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	// A blob is a complete file: trailing bytes mean the caller handed us
	// something else (or a concatenation) — reject rather than half-read.
	if extra, err := io.CopyN(io.Discard, r, 1); extra != 0 || err != io.EOF {
		return nil, nil, fmt.Errorf("graphio: trailing data after network blob")
	}

	h, err := graph.FromCSR(hOff, hAdj)
	if err != nil {
		return nil, nil, fmt.Errorf("graphio: blob H graph: %w", err)
	}
	net := &hgraph.Network{Params: p, H: h, K: int(netK), IDs: ids}
	topo, err := core.TopologyFromRev(net, rev)
	if err != nil {
		return nil, nil, err
	}
	return net, topo, nil
}

// blobSize returns the exact encoded size implied by the header fields.
func blobSize(n, hLen uint64) int64 {
	return headerLen + 4*int64(n+1+2*hLen) + 8*int64(n) + 4
}

// readI32s decodes count little-endian int32s, which the caller has
// proved the blob holds, into a slice allocated at its final size.
func readI32s(r io.Reader, count int, buf []byte) ([]int32, error) {
	out := make([]int32, count)
	for done := 0; done < count; {
		n := min(count-done, len(buf)/4)
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return nil, fmt.Errorf("graphio: network blob truncated: %w", err)
		}
		for i := range out[done : done+n] {
			out[done+i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		done += n
	}
	return out, nil
}

// readU64s is readI32s for uint64 payloads.
func readU64s(r io.Reader, count int, buf []byte) ([]uint64, error) {
	out := make([]uint64, count)
	for done := 0; done < count; {
		n := min(count-done, len(buf)/8)
		if _, err := io.ReadFull(r, buf[:8*n]); err != nil {
			return nil, fmt.Errorf("graphio: network blob truncated: %w", err)
		}
		for i := range out[done : done+n] {
			out[done+i] = binary.LittleEndian.Uint64(buf[8*i:])
		}
		done += n
	}
	return out, nil
}
