package main

import (
	"flag"
	"runtime"
	"strings"
	"testing"
)

// The -compare gate is exercised on synthetic cases: CPU spins whose
// relative cost is set by construction (4× apart, far outside the
// gates' floors), and a case that allocates, so each check fails or
// passes for a known reason on any machine.

var (
	spinSink  int
	allocSink []byte
)

// spinUnit is one unit of synthetic work per op, about 10 µs.
const spinUnit = 20000

// spin returns a benchmark doing units of work per op.
func spin(units int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := 0
			for k := 0; k < units*spinUnit; k++ {
				s += k ^ i
			}
			spinSink += s
		}
	}
}

// allocating returns a benchmark making n heap allocations per op.
func allocating(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := 0; k < n; k++ {
				allocSink = make([]byte, 64)
			}
		}
	}
}

// shortBenchtime makes testing.Benchmark sample for 20 ms instead of 1 s.
func shortBenchtime(t *testing.T) {
	f := flag.Lookup("test.benchtime")
	old := f.Value.String()
	if err := flag.Set("test.benchtime", "20ms"); err != nil {
		t.Fatal(err)
	}
	// Restoring the value just read back cannot fail.
	t.Cleanup(func() { _ = flag.Set("test.benchtime", old) })
}

// syntheticBaseline is a one-entry trajectory holding a 0-alloc arena
// case. With otherMachine set it claims hardware this machine does not
// have, so ns/op is informational and only the same-run gates apply.
func syntheticBaseline(nsPerOp float64, otherMachine bool) trajectory {
	e := entry{Label: "synthetic", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		Benchmarks: []benchResult{{Name: "core/run-arena/n=1", NsPerOp: nsPerOp}}}
	if otherMachine {
		e.GOOS = "plan9"
	}
	return trajectory{Series: []entry{e}}
}

// Case names the gates pair up: the arena case the baseline holds and a
// hiphase frontier/dense pair (minSpeedup). The generation pair is only
// reported.
const (
	arenaCase    = "core/run-arena/n=1"
	frontierCase = "core/run-hiphase/n=1"
	denseCase    = "core/run-hiphase-dense/n=1"
	genCase      = "hgraph/gen/n=1"
	genRefCase   = "hgraph/gen-ref/n=1"
)

// TestCompareGates feeds compare each kind of regression and checks that
// it fails for that reason alone, and that a clean comparison passes.
func TestCompareGates(t *testing.T) {
	if testing.Short() {
		t.Skip("times synthetic benchmarks")
	}
	shortBenchtime(t)
	// clean is the set of cases every gate passes: the dense case costs
	// 4× the frontier one.
	clean := func() map[string]benchCase {
		return map[string]benchCase{
			arenaCase:    {name: arenaCase, fn: spin(1)},
			frontierCase: {name: frontierCase, fn: spin(1)},
			denseCase:    {name: denseCase, fn: spin(4)},
			genCase:      {name: genCase, fn: spin(1)},
			genRefCase:   {name: genRefCase, fn: spin(4)},
		}
	}
	for _, tc := range []struct {
		name     string
		baseline trajectory
		edit     func(cs map[string]benchCase)
		want     string // the one failure expected; "" for a pass
	}{
		{name: "clean", baseline: syntheticBaseline(1e9, true)},
		{name: "allocs-increase", baseline: syntheticBaseline(1e9, true),
			edit: func(cs map[string]benchCase) {
				cs[arenaCase] = benchCase{name: arenaCase, fn: allocating(10)}
			},
			want: arenaCase + ": allocs/op 0 -> 10"},
		{name: "frontier-ratio", baseline: syntheticBaseline(1e9, true),
			edit: func(cs map[string]benchCase) {
				// The frontier case now costs 4× the dense one.
				cs[frontierCase] = benchCase{name: frontierCase, fn: spin(4)}
				cs[denseCase] = benchCase{name: denseCase, fn: spin(1)}
			},
			want: frontierCase + ": frontier speedup"},
		{name: "ns-regression-same-machine", baseline: syntheticBaseline(1, false),
			want: arenaCase + ": ns/op"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			byName := clean()
			if tc.edit != nil {
				tc.edit(byName)
			}
			var cs []benchCase
			for _, name := range []string{arenaCase, frontierCase, denseCase, genCase, genRefCase} {
				cs = append(cs, byName[name])
			}
			var out strings.Builder
			err := compare(tc.baseline, cs, 0.15, &out)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("clean comparison failed: %v\n%s", err, out.String())
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "1 benchmark regression") {
				t.Fatalf("compare = %v, want exactly one regression\n%s", err, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("report does not name %q:\n%s", tc.want, out.String())
			}
		})
	}
}

// TestCompareNothingIsAnError checks that a baseline sharing no core/run
// case with this scale fails instead of passing vacuously.
func TestCompareNothingIsAnError(t *testing.T) {
	base := syntheticBaseline(1e9, true)
	base.Series[0].Benchmarks[0].Name = "core/run-arena/n=999"
	var out strings.Builder
	if err := compare(base, []benchCase{{name: arenaCase, fn: spin(1)}}, 0.15, &out); err == nil {
		t.Fatalf("compare passed with no case in common:\n%s", out.String())
	}
}
