package sweep

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// Group is the aggregate of all trials of one grid cell.
type Group struct {
	// Job is the cell's representative (its first trial in expansion
	// order); aggregation-relevant fields are identical across the cell.
	Job Job
	// Agg accumulates the cell's per-trial summaries.
	Agg metrics.Aggregate
}

// Aggregate folds outcomes into per-cell aggregates. Folding walks the
// outcomes in expansion order and groups by Job.Group, so the result —
// including its floating-point rounding — is identical no matter how many
// workers produced the outcomes or in what order they completed. Failed
// outcomes (Err != nil) are skipped.
func Aggregate(outs []Outcome) []Group {
	index := map[int]int{} // Job.Group -> position in groups
	var groups []Group
	for _, o := range outs {
		if o.Err != nil {
			continue
		}
		gi, ok := index[o.Job.Group]
		if !ok {
			gi = len(groups)
			index[o.Job.Group] = gi
			groups = append(groups, Group{Job: o.Job})
		}
		groups[gi].Agg.Add(o.Summary)
	}
	return groups
}

// Total merges every group into one grand aggregate (group order, so the
// result is deterministic).
func Total(groups []Group) metrics.Aggregate {
	var total metrics.Aggregate
	for _, g := range groups {
		total.Merge(g.Agg)
	}
	return total
}

var aggregateColumns = []string{
	"n", "d", "δ", "B", "placement", "adversary", "alg", "ε", "churn", "loss",
	"trials", "correct", "survivor", "crashed", "undecided", "ratio med", "rounds",
}

// row renders one group's cells.
func (g Group) row() []string {
	j := g.Job
	placement := j.Placement
	if placement == "" {
		placement = "random"
	}
	adv := j.Adversary
	if adv == "" {
		adv = "none"
	}
	eps := j.Epsilon
	if eps == 0 {
		eps = 0.1 // the core default actually in effect
	}
	f := func(v float64) string { return fmt.Sprintf("%.4g", v) }
	churn := fmt.Sprint(j.ChurnCrashes)
	if j.FaultModel == "join" {
		churn = fmt.Sprintf("join %.4g", j.JoinFrac)
	}
	return []string{
		fmt.Sprint(j.Net.N), fmt.Sprint(j.Net.D), f(j.Delta), fmt.Sprint(j.ByzCount),
		placement, adv, j.Algorithm.String(), f(eps), churn, f(j.LossProb),
		fmt.Sprint(g.Agg.Trials),
		f(g.Agg.CorrectFraction.Mean()), f(g.Agg.SurvivorCorrect.Mean()),
		f(g.Agg.CrashedFraction.Mean()), f(g.Agg.Undecided.Mean()),
		f(g.Agg.RatioMedian.Mean()), f(g.Agg.Rounds.Mean()),
	}
}

// Markdown renders the per-cell aggregates as a Markdown table, plus a
// grand-total line.
func Markdown(title string, groups []Group) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "### %s\n\n", title)
	}
	b.WriteString("| " + strings.Join(aggregateColumns, " | ") + " |\n")
	sep := make([]string, len(aggregateColumns))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, g := range groups {
		b.WriteString("| " + strings.Join(g.row(), " | ") + " |\n")
	}
	total := Total(groups)
	fmt.Fprintf(&b, "\n%d cells, %d runs: correct %.4g ± %.2g, rounds %.4g ± %.2g\n",
		len(groups), total.Trials,
		total.CorrectFraction.Mean(), total.CorrectFraction.StdErr(),
		total.Rounds.Mean(), total.Rounds.StdErr())
	return b.String()
}

// Renderer returns the renderer for an aggregate output format: "md"
// (Markdown, under title) or "csv" (title unused). Commands resolve
// their -format flag through it before running anything.
func Renderer(format string) (func(title string, groups []Group) string, error) {
	switch format {
	case "md":
		return Markdown, nil
	case "csv":
		return func(_ string, groups []Group) string { return CSV(groups) }, nil
	}
	return nil, fmt.Errorf("unknown format %q (want md|csv)", format)
}

// CSV renders the per-cell aggregates as CSV (header first).
func CSV(groups []Group) string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(aggregateColumns)
	for _, g := range groups {
		writeRow(g.row())
	}
	return b.String()
}
