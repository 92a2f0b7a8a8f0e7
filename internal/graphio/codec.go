package graphio

// codec.go is the versioned binary network codec behind the persistent
// topology store: one self-contained blob per generated instance holding
// the hgraph.Network's state (params, H, IDs), so a store hit skips
// generation. The lattice network G = H ∪ L is derived from H and never
// stored: the engine needs only its adjacency length, which a loaded
// network counts from H on first use (hgraph.Network.S). Nor is any
// engine table: the engine finds what it needs from H per run. An
// n = 2048, d = 8 blob is 90,176 bytes.
//
// Format v4, all little-endian:
//
//	magic   [4]byte  "BZNT"
//	version u16      CodecVersion
//	flags   u16      reserved, must be zero
//	params  4×u64    N, D, K, Seed (as generated; K may be 0 = default)
//	netK    u64      resolved lattice radius
//	hLen    u64      len(H adjacency)
//	payload          H offsets (N+1 × i32), H adj (hLen × i32),
//	                 IDs (N × u64)
//	crc     u32      CRC-32C (Castagnoli) over everything above
//
// v4 is v3 without the reverse-edge index that followed the IDs.
//
// A blob is encoded into one buffer of exactly its size and decoded from
// one byte slice. The decoder is fuzzed (FuzzReadNetwork): truncation,
// bit flips, version skew, and fabricated lengths must produce errors,
// never panics or unbounded allocation — the header's implied size must
// equal the blob's real size before the payload is read or allocated
// (readBlob), and every structural invariant is re-validated
// (graph.FromCSR, which also checks that H is symmetric) before anything
// is handed to the engine.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/graph"
	"repro/internal/hgraph"
)

// CodecVersion is the current binary format version. Bump it on any
// format change: the store namespaces its files by version, so old blobs
// are simply never opened rather than misparsed.
const CodecVersion = 4

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

// EncodeNetwork returns net's blob in the binary codec format.
func EncodeNetwork(net *hgraph.Network) []byte {
	hOff, hAdj := net.H.CSR()
	n, hLen := uint64(net.Params.N), uint64(len(hAdj))
	blob := make([]byte, blobSize(n, hLen))
	copy(blob[0:4], netMagic[:])
	binary.LittleEndian.PutUint16(blob[4:6], CodecVersion)
	for i, v := range []uint64{n, uint64(net.Params.D), uint64(net.Params.K),
		net.Params.Seed, uint64(net.K), hLen} {
		binary.LittleEndian.PutUint64(blob[8+8*i:], v)
	}
	b := blob[headerLen:]
	for _, s := range [][]int32{hOff, hAdj} {
		for _, v := range s {
			binary.LittleEndian.PutUint32(b, uint32(v))
			b = b[4:]
		}
	}
	for _, v := range net.IDs {
		binary.LittleEndian.PutUint64(b, v)
		b = b[8:]
	}
	binary.LittleEndian.PutUint32(b, crc32.Checksum(blob[:len(blob)-4], crcTable))
	return blob
}

// header is a blob header's decoded fields.
type header struct {
	params  hgraph.Params
	netK    int
	n, hLen uint64
}

// parseHeader validates the first headerLen bytes of a blob that is size
// bytes long in total: magic, version, flags, params, the lattice radius
// and the exact size the header implies. Once it passes, every length in
// the header is backed by real bytes.
func parseHeader(hdr []byte, size int64) (header, error) {
	if [4]byte(hdr[0:4]) != netMagic {
		return header{}, fmt.Errorf("graphio: bad network blob magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != CodecVersion {
		return header{}, fmt.Errorf("%w: blob v%d, codec v%d", ErrCodecVersion, v, CodecVersion)
	}
	if f := binary.LittleEndian.Uint16(hdr[6:8]); f != 0 {
		return header{}, fmt.Errorf("graphio: unknown network blob flags %#x", f)
	}
	var fields [6]uint64
	for i := range fields {
		fields[i] = binary.LittleEndian.Uint64(hdr[8+8*i:])
	}
	n, d, k, seed := fields[0], fields[1], fields[2], fields[3]
	netK, hLen := fields[4], fields[5]
	if n < 3 || n > maxCodecNodes {
		return header{}, fmt.Errorf("graphio: network blob claims %d nodes", n)
	}
	p := hgraph.Params{N: int(n), D: int(d), K: int(k), Seed: seed}
	if d > uint64(maxCodecNodes) || k > uint64(maxCodecNodes) {
		return header{}, fmt.Errorf("graphio: network blob params out of range")
	}
	if err := p.Validate(); err != nil {
		return header{}, err
	}
	if netK != uint64(p.Canonical().K) {
		return header{}, fmt.Errorf("graphio: blob lattice radius %d does not match params", netK)
	}
	if hLen >= 1<<31 {
		return header{}, fmt.Errorf("graphio: network blob claims oversized adjacency")
	}
	if want := blobSize(n, hLen); want != size {
		return header{}, fmt.Errorf("graphio: network blob is %d bytes, header implies %d", size, want)
	}
	return header{params: p, netK: int(netK), n: n, hLen: hLen}, nil
}

// readBlob reads a blob of size bytes from r. It reads the header first
// and rejects a size the header disagrees with before it reads or
// allocates the payload; a reader that ends early or runs on past size
// is an error too.
func readBlob(r io.Reader, size int64) ([]byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("graphio: network blob header: %w", err)
	}
	if _, err := parseHeader(hdr[:], size); err != nil {
		return nil, err
	}
	blob := make([]byte, size)
	copy(blob, hdr[:])
	if _, err := io.ReadFull(r, blob[headerLen:]); err != nil {
		return nil, fmt.Errorf("graphio: network blob truncated: %w", err)
	}
	if extra, err := io.CopyN(io.Discard, r, 1); extra != 0 || err != io.EOF {
		return nil, fmt.Errorf("graphio: trailing data after network blob")
	}
	return blob, nil
}

// DecodeNetwork decodes a blob written by EncodeNetwork. Every failure
// mode of a damaged blob — truncation, flipped bits, version skew,
// trailing garbage, fabricated structure — returns an error; the
// function never panics on any input. This is the store's hot path; a
// disk hit's cost is mostly this function and the read before it.
func DecodeNetwork(blob []byte) (*hgraph.Network, error) {
	if len(blob) < headerLen {
		return nil, fmt.Errorf("graphio: network blob header: %w", io.ErrUnexpectedEOF)
	}
	h, err := parseHeader(blob[:headerLen], int64(len(blob)))
	if err != nil {
		return nil, err
	}
	body := blob[:len(blob)-4]
	stored := binary.LittleEndian.Uint32(blob[len(body):])
	if sum := crc32.Checksum(body, crcTable); stored != sum {
		return nil, fmt.Errorf("graphio: network blob checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}
	b := body[headerLen:]
	i32s := func(count uint64) []int32 {
		out := make([]int32, count)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		b = b[4*count:]
		return out
	}
	hOff := i32s(h.n + 1)
	hAdj := i32s(h.hLen)
	ids := make([]uint64, h.n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	g, err := graph.FromCSR(hOff, hAdj)
	if err != nil {
		return nil, fmt.Errorf("graphio: blob H graph: %w", err)
	}
	return &hgraph.Network{Params: h.params, H: g, K: h.netK, IDs: ids}, nil
}

// blobSize returns the exact encoded size implied by the header fields.
func blobSize(n, hLen uint64) int64 {
	return headerLen + 4*int64(n+1+hLen) + 8*int64(n) + 4
}
