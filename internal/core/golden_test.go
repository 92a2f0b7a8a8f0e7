package core_test

// golden_test.go pins SHA-256 digests of canonical core.Run results for a
// small grid spanning both algorithms, several adversaries (including the
// stateful ones), and churn on/off. The digests were captured from the
// seed engine (pre-arena, PR 1); any engine change that alters run
// dynamics — rather than just its cost — fails loudly here.
//
// To regenerate after an INTENTIONAL dynamics change:
//
//	go test ./internal/core/ -run TestGoldenResults -v -print-golden
//
// and paste the printed table, recording the reason in the commit message.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/rng"
)

var printGolden = flag.Bool("print-golden", false, "print the golden digest table instead of asserting")

// resultDigest canonicalizes a Result as JSON (struct field order is fixed,
// map keys are sorted by encoding/json) and hashes it.
func resultDigest(t testing.TB, res *core.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

type goldenCase struct {
	name      string
	algorithm core.Algorithm
	adversary string // adversary.ByName key, or "chaos" (see goldenAdversary)
	byzCount  int
	churn     int
	loss      float64 // MessageLoss probability (0 = reliable links)
	join      int     // JoinChurn count (0 = no dynamic churn)
	digest    string
}

// The grid: n=96 d=8 keeps a case under ~10ms while exercising the
// exchange, chain attestation, Byzantine send latching, and churn paths.
const (
	goldenN       = 96
	goldenD       = 8
	goldenNetSeed = 701
	goldenRunSeed = 702
	goldenByzSeed = 703
)

var goldenCases = []goldenCase{
	{name: "basic/none", algorithm: core.AlgorithmBasic, adversary: "none", byzCount: 0, churn: 0,
		digest: "493825c820472f789cc7c1bfb0172ebc5ee82490c3c1d3c53289a59f3e57c32a"},
	{name: "basic/none/churn", algorithm: core.AlgorithmBasic, adversary: "none", byzCount: 0, churn: 4,
		digest: "91a6764ad059c2dec9fef125f1ad976b994072ae0c78ac50ddb312fff7cbc745"},
	{name: "basic/inflate", algorithm: core.AlgorithmBasic, adversary: "inflate", byzCount: 3, churn: 0,
		digest: "d7ed8d83b5f45594fd49ede96ca963bc4548ae13daec2ddfb0d0fac40ed59525"},
	{name: "byzantine/none", algorithm: core.AlgorithmByzantine, adversary: "none", byzCount: 0, churn: 0,
		digest: "6496e148d7a1a8928e69762dc174598aaeaa293649bdd7a4b69b0bde2b140528"},
	{name: "byzantine/honest-byz", algorithm: core.AlgorithmByzantine, adversary: "honest", byzCount: 3, churn: 0,
		digest: "d14c9ce340ea5131908e254fddc591dab63e792fab268dd86d0c18fdd4a4ddef"},
	{name: "byzantine/inflate", algorithm: core.AlgorithmByzantine, adversary: "inflate", byzCount: 3, churn: 0,
		digest: "5d5f77cffb51be57999e632af12fd47b46077685953e797e2d3f417a98c57016"},
	{name: "byzantine/inflate/churn", algorithm: core.AlgorithmByzantine, adversary: "inflate", byzCount: 3, churn: 4,
		digest: "7efd8092309ead25c1160388d0e469da23f836f8d5575fdb82945e407bb8cbf7"},
	{name: "byzantine/oracle", algorithm: core.AlgorithmByzantine, adversary: "oracle", byzCount: 3, churn: 0,
		digest: "688ec90af04c07e064d2e34803180ee0d7418eae08aa286d6d7e000b5020168a"},
	{name: "byzantine/suppress/churn", algorithm: core.AlgorithmByzantine, adversary: "suppress", byzCount: 3, churn: 4,
		digest: "5b7223160422c1a08a7f09ed6fbc2f3ae793cb7dc6486d186ab7a604d9156c32"},
	{name: "byzantine/combo", algorithm: core.AlgorithmByzantine, adversary: "combo", byzCount: 3, churn: 0,
		digest: "f7c31addf0efb6a44146ac844384c81dacd79079c063a504dfccd5164f988947"},

	// Fault-model cases (PR 3). The cases above run with Config.Faults
	// empty and pin the fault-model-off path byte-identical to the PR 2
	// engine (their digests are untouched from the seed capture); the
	// cases below pin the new message-loss and join-churn dynamics.
	{name: "basic/none/loss", algorithm: core.AlgorithmBasic, adversary: "none", byzCount: 0, loss: 0.1,
		digest: "c95802280d74cd77c96d3c4c616343742d2a15fad0bddb7edfd4e0c9375cf8bf"},
	{name: "byzantine/inflate/loss", algorithm: core.AlgorithmByzantine, adversary: "inflate", byzCount: 3, loss: 0.1,
		digest: "d22cf11bc06cad14b4612d5a8b29b82560bc5fdd9fad4bba51d97c066a842b39"},
	{name: "byzantine/none/join", algorithm: core.AlgorithmByzantine, adversary: "none", byzCount: 0, join: 8,
		digest: "1c03562a7995637c4c87e67125118bd96c783d287b0963d250ef6ba681935595"},
	{name: "byzantine/inflate/join+loss+churn", algorithm: core.AlgorithmByzantine, adversary: "inflate", byzCount: 3, churn: 4, loss: 0.05, join: 6,
		digest: "341fad05d1af4ce429d9e8083ad6b49e52dc29b8fbc7402b23f5c0cb8949e34b"},

	// Exchange cases: adversaries whose topology claims reach the crash
	// rule and the believed views. chaos draws its claims from a stream,
	// so its digest also pins the order in which victims are asked.
	// topology-liar and combo make the same claims, which crash all but 7
	// honest nodes here; the two runs then come out identical, so they
	// share a digest.
	{name: "byzantine/topology-liar", algorithm: core.AlgorithmByzantine, adversary: "topology-liar", byzCount: 3,
		digest: "f7c31addf0efb6a44146ac844384c81dacd79079c063a504dfccd5164f988947"},
	{name: "byzantine/chaos", algorithm: core.AlgorithmByzantine, adversary: "chaos", byzCount: 3,
		digest: "616230c63335989c19bad9580ed50146d0d35a9b9dac9cb5a421f50e5427c227"},
}

// goldenChaosSeed seeds the chaos case's adversary stream.
const goldenChaosSeed = 704

// goldenAdversary returns a fresh adversary for gc. "chaos" is not in
// adversary.ByName (it needs a seed), so the grid builds it here.
func goldenAdversary(t testing.TB, gc goldenCase) core.Adversary {
	t.Helper()
	if gc.adversary == "chaos" {
		return &adversary.Chaos{Seed: goldenChaosSeed}
	}
	adv, ok := adversary.ByName(gc.adversary)
	if !ok {
		t.Fatalf("unknown adversary %q", gc.adversary)
	}
	return adv
}

func runGoldenCase(t testing.TB, net *hgraph.Network, gc goldenCase, workers int) *core.Result {
	return runGoldenCaseMode(t, net, gc, workers, core.FrontierOn)
}

// runGoldenCaseMode is runGoldenCase with an explicit round-engine mode
// (the frontier equivalence suite replays the grid under FrontierOff).
func runGoldenCaseMode(t testing.TB, net *hgraph.Network, gc goldenCase, workers int, mode core.FrontierMode) *core.Result {
	var byz []bool
	if gc.byzCount > 0 {
		byz = hgraph.PlaceByzantine(goldenN, gc.byzCount, rng.New(goldenByzSeed))
	}
	adv := goldenAdversary(t, gc)
	cfg := core.Config{
		Algorithm:      gc.algorithm,
		Seed:           goldenRunSeed,
		Workers:        workers,
		FrontierRounds: mode,
	}
	if gc.churn > 0 {
		cfg.Faults = append(cfg.Faults, core.CrashChurn{Crashes: gc.churn, Seed: goldenRunSeed + 1})
	}
	if gc.join > 0 {
		cfg.Faults = append(cfg.Faults, core.JoinChurn{Count: gc.join, Seed: goldenRunSeed + 2})
	}
	if gc.loss > 0 {
		cfg.Faults = append(cfg.Faults, core.MessageLoss{Prob: gc.loss})
	}
	res, err := core.Run(net, byz, adv, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestGoldenResults(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: goldenN, D: goldenD, Seed: goldenNetSeed})
	for _, gc := range goldenCases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			res := runGoldenCase(t, net, gc, 1)
			got := resultDigest(t, res)
			if *printGolden {
				fmt.Printf("GOLDEN\t%s\t%s\n", gc.name, got)
				return
			}
			if got != gc.digest {
				t.Errorf("digest mismatch:\n got %s\nwant %s\n(run dynamics changed; see golden_test.go header)", got, gc.digest)
			}
		})
	}
}

// TestGoldenResultsWorkerInvariant re-runs the Byzantine golden cases with
// parallel sim workers: the digest — not just DeepEqual against another
// in-process run — must match the pinned serial value.
func TestGoldenResultsWorkerInvariant(t *testing.T) {
	if *printGolden {
		t.Skip("printing mode")
	}
	net := hgraph.MustNew(hgraph.Params{N: goldenN, D: goldenD, Seed: goldenNetSeed})
	for _, gc := range goldenCases {
		if gc.algorithm != core.AlgorithmByzantine {
			continue
		}
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			res := runGoldenCase(t, net, gc, 4)
			if got := resultDigest(t, res); got != gc.digest {
				t.Errorf("digest with 4 sim workers:\n got %s\nwant %s", got, gc.digest)
			}
		})
	}
}
