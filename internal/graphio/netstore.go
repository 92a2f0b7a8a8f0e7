package graphio

// netstore.go is the persistent topology store: a directory of network
// blobs (see codec.go) content-addressed by the SHA-256 of canonical
// generation parameters. It is the disk tier below the sweep scheduler's
// in-memory network LRU — a sweep (or a netgen -pregen run) pays H's
// generation once per (n, d, k, seed) ever, not once per process. A blob
// holds H, the IDs and the reverse-edge index, never G (see codec.go).
//
// Layout: <root>/v<CodecVersion>/<sha256(params)>.net — the version
// namespace means a codec bump simply stops finding old blobs instead of
// misparsing them, and CI can key its corpus cache on the version
// directory. Writes go through a temp file and an atomic rename, so
// concurrent writers of the same key race harmlessly and a killed
// process never leaves a half-written blob under a live name. Corrupt,
// stale, or version-skewed blobs fail Load with an error; callers fall
// back to regeneration (and their subsequent Save heals the entry).

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hgraph"
)

// tempMaxAge is how old a .tmp-* file must be before OpenNetStore
// treats it as an orphan of a dead writer and removes it. Live writers
// finish (or clean up after themselves) in well under this; a crashed
// process's temp file would otherwise leak forever, one per kill.
const tempMaxAge = 15 * time.Minute

// NetStore is a persistent content-addressed store of generated networks
// and their engine tables. Methods are safe for concurrent use (the
// filesystem provides the coordination: reads open complete files,
// writes rename complete temp files into place).
type NetStore struct {
	dir string // versioned directory all blobs live in

	mu   sync.Mutex
	hook func(SaveFile) SaveFile
}

// SaveFile is the write surface Save streams a blob through before the
// atomic rename (an *os.File normally). Chaos tests wrap it via
// SetSaveHook to inject short writes and ENOSPC on the temp file.
type SaveFile interface {
	io.Writer
	Close() error
}

// SetSaveHook installs (or, with nil, removes) a wrapper applied to
// every Save's temp file — the store's fault-injection seam.
func (s *NetStore) SetSaveHook(hook func(SaveFile) SaveFile) {
	s.mu.Lock()
	s.hook = hook
	s.mu.Unlock()
}

// OpenNetStore opens (creating if needed) the store rooted at root, and
// sweeps temp files orphaned by writers that died mid-save: a crashed
// process leaves its .tmp-* behind (the atomic-rename protocol never
// exposes it under a live name, but nothing else deletes it either).
// Only temps older than tempMaxAge are removed, so a concurrent live
// writer's in-flight file is never yanked out from under it.
func OpenNetStore(root string) (*NetStore, error) {
	dir := filepath.Join(root, fmt.Sprintf("v%d", CodecVersion))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("graphio: open net store: %w", err)
	}
	sweepOrphanTemps(dir)
	return &NetStore{dir: dir}, nil
}

// sweepOrphanTemps removes stale .tmp-* files; best effort, errors are
// ignored (a vanished or busy file is someone else's progress).
func sweepOrphanTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-tempMaxAge)
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		_ = os.Remove(filepath.Join(dir, e.Name()))
	}
}

// Dir returns the store's versioned blob directory.
func (s *NetStore) Dir() string { return s.dir }

// Key returns the content address of p: hex SHA-256 over the canonical
// parameters and the generator's output version, so K=0 and the explicit
// default K share one blob, and a bumped hgraph.GenVersion (an
// intentional generator-output change) orphans every old blob instead of
// serving a topology the current generator would no longer produce.
func (s *NetStore) Key(p hgraph.Params) string {
	p = p.Canonical()
	sum := sha256.Sum256([]byte(fmt.Sprintf("hgraph gen%d n=%d d=%d k=%d seed=%d",
		hgraph.GenVersion, p.N, p.D, p.K, p.Seed)))
	return hex.EncodeToString(sum[:])
}

// Path returns the blob path for p.
func (s *NetStore) Path(p hgraph.Params) string {
	return filepath.Join(s.dir, s.Key(p)+".net")
}

// Has reports whether a blob for p exists (without validating it).
func (s *NetStore) Has(p hgraph.Params) bool {
	_, err := os.Stat(s.Path(p))
	return err == nil
}

// Load reads the stored network for p, verifying the blob decodes
// cleanly and that its parameters match the request (a hash collision or
// a file copied between keys surfaces as an error, never as a wrong
// topology). A missing blob returns an error satisfying
// errors.Is(err, os.ErrNotExist).
func (s *NetStore) Load(p hgraph.Params) (*hgraph.Network, *core.Topology, error) {
	f, err := os.Open(s.Path(p))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	// The header's implied size must match the file's, after which every
	// array allocates once.
	net, topo, err := ReadNetworkSized(bufio.NewReaderSize(f, 1<<20), st.Size())
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s.Path(p), err)
	}
	if net.Params.Canonical() != p.Canonical() {
		return nil, nil, fmt.Errorf("graphio: blob %s holds params %+v, want %+v", s.Path(p), net.Params, p)
	}
	return net, topo, nil
}

// Save persists net (and topo; nil derives the tables here) under its
// parameters' content address, atomically. A save that fails mid-write
// removes its temp file and leaves the live name untouched — a failed
// save can never poison a later Load.
func (s *NetStore) Save(net *hgraph.Network, topo *core.Topology) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("graphio: net store save: %w", err)
	}
	s.mu.Lock()
	hook := s.hook
	s.mu.Unlock()
	var w SaveFile = tmp
	if hook != nil {
		// The wrapper owns forwarding Close to the temp file.
		w = hook(tmp)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	err = WriteNetwork(bw, net, topo)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("graphio: net store save: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.Path(net.Params)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("graphio: net store save: %w", err)
	}
	return nil
}

// Len counts the blobs currently in the store.
func (s *NetStore) Len() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	count := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".net" {
			count++
		}
	}
	return count
}
