package sweep

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestGridFlags pins the grid flags cmd/sweep and cmd/sweepd share: their
// defaults, blank-item handling, the error for an item that does not
// parse, and -spec taking precedence over every grid flag.
func TestGridFlags(t *testing.T) {
	specFile := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(specFile, []byte(`{"name":"file","sizes":[96],"trials":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	defaults := Spec{
		Name:        "cli",
		Sizes:       []int{256, 512},
		Degrees:     []int{8},
		Deltas:      []float64{0.75},
		Placements:  []string{"random"},
		Adversaries: []string{"none", "inflate", "suppress", "oracle", "topology-liar", "chain-faker", "combo"},
		Algorithms:  []string{"byzantine"},
		Epsilons:    []float64{0},
		ChurnFracs:  []float64{0},
		FaultModels: []string{"crash"},
		JoinFracs:   []float64{0},
		LossProbs:   []float64{0},
		Trials:      8,
		Seed:        1,
	}
	blanks := defaults
	blanks.Adversaries = []string{"none", "inflate"}
	blanks.LossProbs = []float64{0.1}
	for _, tc := range []struct {
		name    string
		args    []string
		want    Spec
		wantErr string // a substring of the error; "" expects none
	}{
		{name: "defaults", want: defaults},
		{name: "blank items", args: []string{"-n", " 256, ,512,", "-adv", "none,,inflate, ", "-loss", ",0.1"}, want: blanks},
		{name: "bad integer", args: []string{"-d", "8,x8"}, wantErr: `"x8"`},
		{name: "bad float", args: []string{"-delta", "0.5", "-join", "0,1/2"}, wantErr: `"1/2"`},
		{name: "spec file", args: []string{"-spec", specFile, "-n", "bad", "-trials", "5"},
			want: Spec{Name: "file", Sizes: []int{96}, Trials: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("grid", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			gridSpec := GridFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, err := gridSpec()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one naming %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("spec\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
