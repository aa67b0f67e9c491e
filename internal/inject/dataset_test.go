package inject

import (
	"math/rand"
	"reflect"
	"testing"

	"xentry/internal/core"
	"xentry/internal/isa"
	"xentry/internal/ml"
	"xentry/internal/sim"
	"xentry/internal/workload"
)

// labelByRunOne is the reference labeller CollectDataset's signature walk
// must reproduce: every fault-free run replayed from reset, and every
// injection executed to completion by the campaign engine (Worker.RunOne,
// with pruning on or off), labelled from the Outcome fields the model is
// trained on. It also counts the RIP and RFLAGS plans it labelled
// incorrect, so callers can check the control-state sites were exercised.
func labelByRunOne(t *testing.T, cfg DatasetConfig, disablePrune bool) (ds ml.Dataset, ctlIncorrect map[isa.Reg]int) {
	t.Helper()
	ctlIncorrect = map[isa.Reg]int{}
	for bi, bench := range cfg.Benchmarks {
		simCfg := sim.Config{
			Benchmark: bench,
			Mode:      cfg.Mode,
			Domains:   3,
			Seed:      cfg.Seed + int64(bi)*1543,
			Detection: core.FullDetection(),
		}
		for run := 0; run < cfg.FaultFreeRuns; run++ {
			runCfg := simCfg
			runCfg.Seed += int64(run) * 389
			acts, err := sim.GoldenRun(runCfg, cfg.Activations)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range acts {
				if a.Outcome.HasFeatures {
					ds = append(ds, ml.Sample{Features: a.Outcome.Features, Correct: true})
				}
			}
		}
		runner, err := NewRunner(simCfg, cfg.Activations, nil)
		if err != nil {
			t.Fatal(err)
		}
		runner.DisablePrune = disablePrune
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(bi+3)*6151))
		w := runner.NewWorker()
		for i := 0; i < cfg.InjectionsPerBenchmark; i++ {
			plan := runner.RandomPlan(rng)
			o, err := w.RunOne(plan)
			if err != nil {
				t.Fatal(err)
			}
			if disablePrune && o.Pruned != PruneNone {
				t.Fatalf("disabled runner pruned plan %v: %v", plan, o.Pruned)
			}
			if o.HasFeatures && o.FeaturesDiffer {
				ds = append(ds, ml.Sample{Features: o.Features, Correct: false})
				if plan.Reg == isa.RIP || plan.Reg == isa.RFLAGS {
					ctlIncorrect[plan.Reg]++
				}
			}
		}
	}
	return ds, ctlIncorrect
}

// TestDatasetSignatureMatchesRunOne: the signature-only walk labels every
// plan exactly as the full campaign engine does, with pruning on (pruned
// outcomes preserve the labeller's fields) and off, across seeds and all
// six benchmarks.
func TestDatasetSignatureMatchesRunOne(t *testing.T) {
	if testing.Short() {
		t.Skip("full-engine dataset differential")
	}
	for _, seed := range []int64{7, 11, 23} {
		cfg := DatasetConfig{
			Benchmarks:             workload.Names(),
			Mode:                   workload.PV,
			FaultFreeRuns:          2,
			Activations:            80,
			InjectionsPerBenchmark: 40,
			Seed:                   seed,
		}
		walked, err := CollectDataset(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, disablePrune := range []bool{false, true} {
			ref, ctl := labelByRunOne(t, cfg, disablePrune)
			if ctl[isa.RIP]+ctl[isa.RFLAGS] == 0 {
				t.Errorf("seed %d: no RIP/RFLAGS plan labelled incorrect", seed)
			}
			if reflect.DeepEqual(walked, ref) {
				continue
			}
			if len(walked) != len(ref) {
				t.Fatalf("seed %d prune-off=%v: walk %d samples, RunOne %d",
					seed, disablePrune, len(walked), len(ref))
			}
			for i := range walked {
				if walked[i] != ref[i] {
					t.Fatalf("seed %d prune-off=%v: sample %d diverges:\nwalk   %+v\nRunOne %+v",
						seed, disablePrune, i, walked[i], ref[i])
				}
			}
		}
	}
}

// TestCollectDatasetRejectsNegativeSizes: a negative size is a caller
// error, not a panic inside slice construction or a silently empty set.
func TestCollectDatasetRejectsNegativeSizes(t *testing.T) {
	base := DatasetConfig{
		Benchmarks:             []string{"postmark"},
		Mode:                   workload.PV,
		FaultFreeRuns:          1,
		Activations:            20,
		InjectionsPerBenchmark: 5,
		Seed:                   3,
	}
	for name, mutate := range map[string]func(*DatasetConfig){
		"fault-free":  func(c *DatasetConfig) { c.FaultFreeRuns = -1 },
		"injections":  func(c *DatasetConfig) { c.InjectionsPerBenchmark = -60 },
		"activations": func(c *DatasetConfig) { c.Activations = -1 },
	} {
		cfg := base
		mutate(&cfg)
		if ds, err := CollectDataset(cfg); err == nil {
			t.Errorf("%s: negative size accepted (%d samples)", name, len(ds))
		}
	}
}
