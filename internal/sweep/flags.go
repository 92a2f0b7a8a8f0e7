package sweep

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// GridFlags registers the scenario-grid flags cmd/sweep and cmd/sweepd
// share on fs: -spec, one comma-separated list per grid axis, -trials
// and -seed. The returned function, called after fs.Parse, returns the
// Spec loaded from the -spec file when -spec is set, ignoring the grid
// flags, and otherwise the Spec the grid flags describe, named "cli". A
// list item that does not parse is an error naming it; blank items are
// dropped.
func GridFlags(fs *flag.FlagSet) func() (Spec, error) {
	var (
		specPath   = fs.String("spec", "", "JSON spec file (grid flags are ignored when set)")
		sizes      = fs.String("n", "256,512", "comma-separated network sizes")
		degrees    = fs.String("d", "8", "comma-separated H-degrees")
		deltas     = fs.String("delta", "0.75", "comma-separated fault exponents (0 = no faults)")
		placements = fs.String("placement", "random", "comma-separated placements (random|clustered|spread|degree|chain)")
		advs       = fs.String("adv", "none,inflate,suppress,oracle,topology-liar,chain-faker,combo", "comma-separated adversaries")
		algs       = fs.String("alg", "byzantine", "comma-separated algorithms (basic|byzantine)")
		epsilons   = fs.String("eps", "0", "comma-separated error parameters (0 = default)")
		churns     = fs.String("churn", "0", "comma-separated crash-churn fractions")
		faults     = fs.String("fault", "crash", "comma-separated churn fault models (crash|join)")
		joins      = fs.String("join", "0", "comma-separated join/rejoin churn fractions (join model)")
		losses     = fs.String("loss", "0", "comma-separated per-edge message loss probabilities")
		trials     = fs.Int("trials", 8, "trials per grid cell")
		seed       = fs.Uint64("seed", 1, "base seed")
	)
	return func() (Spec, error) {
		if *specPath != "" {
			return LoadSpec(*specPath)
		}
		var err error // the first item that does not parse
		ints := func(s string) []int {
			var out []int
			for _, item := range splitList(s) {
				v, perr := strconv.Atoi(item)
				if perr != nil && err == nil {
					err = fmt.Errorf("bad integer %q: %w", item, perr)
				}
				out = append(out, v)
			}
			return out
		}
		floats := func(s string) []float64 {
			var out []float64
			for _, item := range splitList(s) {
				v, perr := strconv.ParseFloat(item, 64)
				if perr != nil && err == nil {
					err = fmt.Errorf("bad number %q: %w", item, perr)
				}
				out = append(out, v)
			}
			return out
		}
		spec := Spec{
			Name:        "cli",
			Sizes:       ints(*sizes),
			Degrees:     ints(*degrees),
			Deltas:      floats(*deltas),
			Placements:  splitList(*placements),
			Adversaries: splitList(*advs),
			Algorithms:  splitList(*algs),
			Epsilons:    floats(*epsilons),
			ChurnFracs:  floats(*churns),
			FaultModels: splitList(*faults),
			JoinFracs:   floats(*joins),
			LossProbs:   floats(*losses),
			Trials:      *trials,
			Seed:        *seed,
		}
		if err != nil {
			return Spec{}, err
		}
		return spec, nil
	}
}

// splitList splits a comma-separated flag value into its trimmed,
// non-blank items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
