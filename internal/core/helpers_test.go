package core

import (
	"reflect"
	"testing"

	"repro/internal/hgraph"
)

// assertResultsEqual fails unless the two results are deeply identical.
func assertResultsEqual(t *testing.T, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("results differ:\nwant %v\n got %v", want, got)
	}
}

// newWorld preserves the seed engine's test-facing constructor: a fresh
// arena Reset for the given run. Production code goes through Run or an
// explicitly reused World.
func newWorld(net *hgraph.Network, byz []bool, adv Adversary, cfg Config) *World {
	w := NewWorld()
	if err := w.Reset(net, byz, adv, cfg); err != nil {
		panic(err)
	}
	return w
}
