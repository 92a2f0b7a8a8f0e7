package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{2.5, 7.25, 1.0, 9.5, 4.0, 6.0, 3.3}, [3]float64{2.5, 4.0, 7.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.in, q1, q2, q3, tc.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want (3.75-1.25)/2.5 = 1", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// TestHighestPercentile pins the rule "the highest percentile with at
// least ten samples beyond it".
func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
		ok   bool
	}{
		{8, 0, false},
		{19, 0, false},
		{20, 50, true},
		{100, 90, true},
		{200, 95, true},
		{280, 96, true},
		{560, 98, true},
		{1000, 99, true},
		{100000, 99, true},
	} {
		p, ok := highestPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %d, %v; want %d, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func runs(workload string, metric string, vals ...float64) []record {
	var out []record
	for _, v := range vals {
		out = append(out, record{Workload: workload, Metrics: map[string]value{metric: {v, "s"}}})
	}
	return out
}

// TestAgreeFailsOnRegression feeds -agree's comparison synthetic
// regressions under the committed BENCHMARK.json bounds. For every
// end-to-end metric, a change five points beyond its bound in the worse
// direction must disagree, one five points inside it must agree, and a
// 20 % regression must disagree wherever the bound is below 20 %.
func TestAgreeFailsOnRegression(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	base := []float64{2.50, 2.55, 2.48, 2.60, 2.52}
	scaled := func(metric string, f float64) []record {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return runs("ref-local", metric, out...)
	}
	for _, d := range bf.EndToEnd {
		worse := 1.0
		if d.Better == "higher" {
			worse = -1
		}
		defs := []metricDef{d}
		for _, tc := range []struct {
			change float64
			ok     bool
		}{
			{0, true},
			{worse * (d.Bound - 0.05), true},
			{worse * (d.Bound + 0.05), false},
			{worse * 0.20, d.Bound >= 0.20},
		} {
			rows := agree(scaled(d.Name, 1), scaled(d.Name, 1+tc.change), defs)
			if len(rows) != 1 || rows[0].OK != tc.ok {
				t.Errorf("%s (bound %.2f): change %+.2f agreed = %v, want %v", d.Name, d.Bound, tc.change, rows[0].OK, tc.ok)
			}
		}
	}
	// A workload missing from one set is a disagreement, not a pass.
	rows := agree(runs("ref-local", "wall_s", base...), runs("ref-fleet", "wall_s", 2.5), bf.EndToEnd[:1])
	if len(rows) != 2 || rows[0].OK || rows[1].OK {
		t.Errorf("a workload present in one set only should disagree: %+v", rows)
	}
}

func TestReadRecordsSkipsOtherLines(t *testing.T) {
	in := strings.Join([]string{
		`not json`,
		`{"workload":"topo-cold","seed":3,"trace":false,"metrics":{"wall_s":{"value":3.5,"unit":"s"}}}`,
		`{"correct":true,"attempted":24,"failed":0,"metrics":{"wall_s":{"value":3.5,"unit":"s"}}}`,
	}, "\n")
	recs, err := readRecords(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Workload != "topo-cold" || recs[0].Metrics["wall_s"].Value != 3.5 {
		t.Fatalf("records = %+v, want the one record line", recs)
	}
}
