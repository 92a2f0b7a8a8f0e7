package sweepd

// fuzz_test.go fuzzes the coordinator's HTTP decode surface: arbitrary
// bodies against every protocol endpoint must be answered 2xx or 4xx —
// never a panic, never a 5xx. The selector byte picks the endpoint so
// one corpus covers the whole mux. The coordinator is shared across
// iterations (leases accumulate), which is the realistic shape: a
// long-lived server fielding junk between legitimate calls.

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

var fuzzEndpoints = []string{"/claim", "/heartbeat", "/report", "/complete", "/status"}

var fuzzOnce struct {
	sync.Once
	handler *Coordinator
	err     error
}

func fuzzCoordinator() (*Coordinator, error) {
	fuzzOnce.Do(func() {
		dir, err := os.MkdirTemp("", "sweepd-fuzz-*")
		if err != nil {
			fuzzOnce.err = err
			return
		}
		store, err := sweep.OpenStore(filepath.Join(dir, "results.jsonl"))
		if err != nil {
			fuzzOnce.err = err
			return
		}
		spec := sweep.Spec{
			Name: "fuzz", Sizes: []int{64}, Deltas: []float64{0},
			Adversaries: []string{"none"}, Trials: 2, Seed: 7,
		}
		jobs, err := spec.Jobs()
		if err != nil {
			fuzzOnce.err = err
			return
		}
		// A hair-trigger staleness threshold: fuzzed claims against
		// leased-out shards walk the trySteal path too.
		fuzzOnce.handler, fuzzOnce.err = NewCoordinator(jobs, Config{
			Name: "fuzz", Store: store, Shards: 2, Telemetry: obs.NewRegistry(),
			StealAfter: time.Millisecond,
		})
	})
	return fuzzOnce.handler, fuzzOnce.err
}

func FuzzProtocolDecode(f *testing.F) {
	f.Add([]byte(`{"worker":"w1"}`), byte(0))
	f.Add([]byte(`{"worker":"w1","shard":0,"lease":1}`), byte(1))
	f.Add([]byte(`{"worker":"w1","shard":0,"lease":1,"records":[{"key":"k","job":{},"summary":{}}]}`), byte(2))
	f.Add([]byte(`{"worker":"w1","shard":99,"lease":-1}`), byte(3))
	f.Add([]byte(``), byte(4))
	f.Add([]byte(`{"worker": tr`), byte(0))
	f.Add([]byte(`[[[[[[[[`), byte(2))
	f.Add([]byte(`{"shard":4294967296,"lease":9223372036854775807}`), byte(1))
	f.Add([]byte("{\"worker\":\"\x00\xff\"}"), byte(0))
	// Progress piggyback fields (done/total on heartbeat and report) and
	// the stolen-keys response path: adversarial counts must never leak
	// out of the per-shard bookkeeping as a panic or 5xx.
	f.Add([]byte(`{"worker":"w1","shard":0,"lease":1,"done":3,"total":9}`), byte(1))
	f.Add([]byte(`{"worker":"w1","shard":0,"lease":1,"done":7,"total":2,"records":[{"key":"k","job":{},"summary":{}}]}`), byte(2))
	f.Add([]byte(`{"worker":"w1","shard":1,"lease":1,"done":-3,"total":99999999999999999}`), byte(1))

	f.Fuzz(func(t *testing.T, body []byte, which byte) {
		coord, err := fuzzCoordinator()
		if err != nil {
			t.Fatal(err)
		}
		path := fuzzEndpoints[int(which)%len(fuzzEndpoints)]
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s with %d-byte body: status %d, want 2xx/4xx (body: %q)",
				path, len(body), rec.Code, rec.Body.String())
		}
	})
}
