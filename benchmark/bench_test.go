package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload once, traced, at one trial per grid cell
// and one pair of rounds, and checks what a real run must deliver: every
// metric BENCHMARK.json names, with its unit; passing output checks;
// a slot table that sums to slots × wall_s; a trace file; and identical
// aggregates within each workload pair.
func TestSmoke(t *testing.T) {
	if err := envGuard(); err != nil {
		t.Skip(err)
	}
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	t.Setenv("TMPDIR", t.TempDir())
	traceDir := t.TempDir()
	digests := map[string]string{}
	for _, bw := range bf.Workloads {
		w, ok := workloadByName(bw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the benchmark", bw.Name)
		}
		var log strings.Builder
		res, err := execute(context.Background(), config{
			w: w, seed: 1, traced: true, traceDir: traceDir, trials: 1, minRounds: 1, noWarmup: true,
		}, &log)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.name, err, log.String())
		}
		if !res.correct || res.failed != 0 || res.attempted == 0 {
			t.Fatalf("%s: output check failed (%d of %d failed): %v\n%s",
				w.name, res.failed, res.attempted, res.problems, log.String())
		}
		for _, set := range []struct {
			defs []metricDef
			got  map[string]value
		}{{bf.EndToEnd, res.endToEnd}, {bf.PerLayer, res.perLayer}} {
			if len(set.got) != len(set.defs) {
				t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", w.name, len(set.got), len(set.defs))
			}
			for _, d := range set.defs {
				v, ok := set.got[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %q", w.name, d.Name, v, d.Unit)
				}
			}
		}
		if res.slotError > 0.01 {
			t.Errorf("%s: slot table is off by %.2f%% of %d × wall_s", w.name, 100*res.slotError, slots)
		}
		if _, err := os.Stat(filepath.Join(traceDir, w.name+".trace.json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
		digests[w.name] = res.digest
	}
	for _, pair := range [][2]string{{"ref-local", "ref-fleet"}, {"topo-cold", "topo-warm"}} {
		if digests[pair[0]] != digests[pair[1]] {
			t.Errorf("%s and %s aggregates differ: %s vs %s", pair[0], pair[1], digests[pair[0]], digests[pair[1]])
		}
	}
}

// TestPerLayerDefsMatchBenchmarkFile keeps the metrics a traced run
// emits and the ones BENCHMARK.json declares in the same order, with the
// same units and directions.
func TestPerLayerDefsMatchBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		if bf.PerLayer[i] != d {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, bf.PerLayer[i], d)
		}
	}
}

func TestEnvGuard(t *testing.T) {
	for _, v := range []string{"REPRO_BATCH", "REPRO_FRONTIER", "REPRO_NETSTORE", "REPRO_STEAL"} {
		t.Setenv(v, "") // restored after the test
		os.Unsetenv(v)
	}
	if err := envGuard(); err != nil {
		t.Fatalf("clean environment refused: %v", err)
	}
	t.Setenv("REPRO_STEAL", "on")
	if err := envGuard(); err == nil || !strings.Contains(err.Error(), "REPRO_STEAL") {
		t.Fatalf("envGuard() = %v, want a refusal naming REPRO_STEAL", err)
	}
}
