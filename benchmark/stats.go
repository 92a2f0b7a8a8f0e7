package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the spreads printed here match the ones the acceptance
// check computes. With fewer than two values every cut is that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		// Clamp first, then take delta: Python extrapolates past the
		// ends for tiny samples, and so must this.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// percentile is the nearest-rank p-th percentile of xs (0 < p <= 100);
// 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// highestPercentile is the highest whole percentile, from 50 up, that
// leaves at least ten of n samples beyond its nearest rank — the tail
// percentile a timing can honestly be reported at. ok is false when even
// the median leaves fewer than ten (n < 20).
func highestPercentile(n int) (p int, ok bool) {
	for p = 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-rank >= 10 {
			return p, true
		}
	}
	return 0, false
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("parse %s: %w", path, err)
	}
	return bf, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the self-describing line a run prints before its result
// line; -agree reads files of them.
type record struct {
	Workload   string           `json:"workload"`
	Seed       uint64           `json:"seed"`
	Trace      bool             `json:"trace"`
	Rounds     int              `json:"rounds"`
	Provenance provenance       `json:"provenance"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Metrics    map[string]value `json:"metrics"`
}

// readRecords parses a JSONL file of run output, keeping only record
// lines (those naming a workload and carrying metrics), so a file built
// by appending whole runs' standard output parses as is.
func readRecords(r io.Reader) ([]record, error) {
	var recs []record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Workload == "" || rec.Metrics == nil {
			continue
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// agreeRow compares one (workload, metric) pair across two sets of runs.
type agreeRow struct {
	Workload, Metric string
	NA, NB           int
	A, B             float64 // medians
	SpreadA, SpreadB float64
	Change           float64 // (B − A) / A
	Bound            float64
	OK               bool
}

// agree compares the per-(workload, metric) medians of two sets of runs
// of one commit against each metric's bound: the sets agree on a pair
// when their medians differ by at most the bound, in either direction.
// A pair present in only one set disagrees. Only metrics with a bound
// (the end-to-end ones) are compared.
func agree(a, b []record, defs []metricDef) []agreeRow {
	type key struct{ workload, metric string }
	collect := func(recs []record) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				out[k] = append(out[k], v.Value)
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	workloads := map[string]bool{}
	for _, recs := range [][]record{a, b} {
		for _, r := range recs {
			if !r.Trace {
				workloads[r.Workload] = true
			}
		}
	}
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)

	var rows []agreeRow
	for _, w := range names {
		for _, d := range defs {
			k := key{w, d.Name}
			xa, xb := va[k], vb[k]
			row := agreeRow{
				Workload: w, Metric: d.Name, NA: len(xa), NB: len(xb),
				A: median(xa), B: median(xb),
				SpreadA: spread(xa), SpreadB: spread(xb), Bound: d.Bound,
			}
			if len(xa) > 0 && len(xb) > 0 && row.A != 0 {
				row.Change = (row.B - row.A) / row.A
				row.OK = math.Abs(row.Change) <= d.Bound
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// runAgree is the -agree mode: it prints the comparison table and
// reports whether every pair agreed.
func runAgree(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	bf, err := loadBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	read := func(path string) ([]record, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return readRecords(f)
	}
	a, err := read(pathA)
	if err != nil {
		return false, err
	}
	b, err := read(pathB)
	if err != nil {
		return false, err
	}
	rows := agree(a, b, bf.EndToEnd)
	allOK := len(rows) > 0
	fmt.Fprintf(w, "%-10s %-12s %4s %4s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "nA", "nB", "median A", "median B", "IQR/m A", "IQR/m B", "change", "bound", "verdict")
	for _, r := range rows {
		verdict := "agree"
		if !r.OK {
			verdict = "DISAGREE"
			allOK = false
		}
		fmt.Fprintf(w, "%-10s %-12s %4d %4d %12.5g %12.5g %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.NA, r.NB, r.A, r.B, 100*r.SpreadA, 100*r.SpreadB,
			100*r.Change, 100*r.Bound, verdict)
	}
	return allOK, nil
}
