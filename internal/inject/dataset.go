package inject

import (
	"fmt"
	"math/rand"

	"xentry/internal/core"
	"xentry/internal/ml"
	"xentry/internal/sim"
	"xentry/internal/workload"
)

// DatasetConfig controls training/testing data collection (paper §III-B:
// ~23,400 injections and fault-free runs produced 12,024 training samples;
// a further ~17,700 produced 6,596 testing samples).
type DatasetConfig struct {
	// Benchmarks contributing samples (defaults to all six).
	Benchmarks []string
	// Mode is the virtualization mode.
	Mode workload.Mode
	// FaultFreeRuns is the number of differently seeded fault-free runs
	// per benchmark; every activation contributes a correct sample.
	FaultFreeRuns int
	// Activations is the length of each run.
	Activations int
	// InjectionsPerBenchmark is the number of fault-injection runs per
	// benchmark; runs whose signature diverges contribute an incorrect
	// sample.
	InjectionsPerBenchmark int
	// Seed drives everything.
	Seed int64
	// Workers is ignored: collection walks benchmarks one at a time (a
	// walk per goroutine raised peak RSS by a tenth).
	Workers int
	// SlowPath runs every machine on the reference stepper; dataset bytes
	// are bit-identical either way (the differential tests prove it).
	SlowPath bool
}

// DefaultDatasetConfig sizes collection for a quick but representative
// dataset.
func DefaultDatasetConfig(seed int64) DatasetConfig {
	return DatasetConfig{
		Benchmarks:             workload.Names(),
		Mode:                   workload.PV,
		FaultFreeRuns:          4,
		Activations:            160,
		InjectionsPerBenchmark: 400,
		Seed:                   seed,
	}
}

// CollectDataset gathers a labelled dataset: fault-free activations are
// correct samples; injection runs whose injected activation completed VM
// entry with a diverged counter signature are incorrect samples. Pure data
// corruptions with golden-identical signatures are excluded — they are not
// incorrect *control flow*, and the transition detector by construction
// cannot see them (they form Table II's undetected classes instead).
// A label depends only on the injected activation, so no injection runs
// its post-flip suffix (see injectionSamples). Benchmarks are collected
// one at a time.
func CollectDataset(cfg DatasetConfig) (ml.Dataset, error) {
	if cfg.FaultFreeRuns < 0 || cfg.InjectionsPerBenchmark < 0 || cfg.Activations < 0 {
		return nil, fmt.Errorf("inject: dataset sizes must be non-negative (fault-free %d, injections %d, activations %d)",
			cfg.FaultFreeRuns, cfg.InjectionsPerBenchmark, cfg.Activations)
	}
	if len(cfg.Benchmarks) == 0 {
		cfg.Benchmarks = workload.Names()
	}
	if cfg.Activations == 0 {
		cfg.Activations = 160
	}
	var dataset ml.Dataset
	for bi, bench := range cfg.Benchmarks {
		simCfg := sim.Config{
			Benchmark: bench,
			Mode:      cfg.Mode,
			Domains:   3,
			Seed:      cfg.Seed + int64(bi)*1543,
			Detection: core.FullDetection(),
			SlowPath:  cfg.SlowPath,
		}
		// No model installed — this is the data the model will be trained
		// on. The runner's golden run is fault-free run 0.
		runner, err := NewRunner(simCfg, cfg.Activations, nil)
		if err != nil {
			return nil, fmt.Errorf("inject: dataset runner: %w", err)
		}

		// Correct samples from differently seeded fault-free runs.
		for run := 0; run < cfg.FaultFreeRuns; run++ {
			acts := runner.Golden
			if run > 0 {
				runCfg := simCfg
				runCfg.Seed += int64(run) * 389
				if acts, err = sim.GoldenRun(runCfg, cfg.Activations); err != nil {
					return nil, fmt.Errorf("inject: dataset golden run: %w", err)
				}
			}
			for _, a := range acts {
				if a.Outcome.HasFeatures {
					dataset = append(dataset, ml.Sample{Features: a.Outcome.Features, Correct: true})
				}
			}
		}

		// Incorrect samples from injections.
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(bi+3)*6151))
		plans := make([]Plan, cfg.InjectionsPerBenchmark)
		for i := range plans {
			plans[i] = runner.RandomPlan(rng)
		}
		samples, err := injectionSamples(runner, plans)
		if err != nil {
			return nil, err
		}
		dataset = append(dataset, samples...)
	}
	return dataset, nil
}

// injectionSamples returns, in plan order, an incorrect sample for every
// plan whose injected activation reached VM entry with a diverged counter
// signature — exactly the plans Worker.RunOne reports HasFeatures and
// FeaturesDiffer for. A reference machine walks the fault-free stream and
// is checkpointed at each planned activation; per plan, a second machine
// restores that checkpoint and executes only the injected activation
// through the campaign engine's hook. Memory is two machines plus one live
// checkpoint: no checkpoint pool, no prune tables.
func injectionSamples(r *Runner, plans []Plan) (ml.Dataset, error) {
	if len(plans) == 0 {
		return nil, nil
	}
	ref, err := r.newMachine()
	if err != nil {
		return nil, err
	}
	inj, err := r.newMachine()
	if err != nil {
		return nil, err
	}
	byAct := make([][]int, r.Activations)
	for i, p := range plans {
		byAct[p.Activation] = append(byAct[p.Activation], i)
	}
	diverged := make([]bool, len(plans))
	sigs := make([][ml.NumFeatures]uint64, len(plans))
	for a, planned := range byAct {
		if len(planned) == 0 {
			continue
		}
		for ref.StepIndex() < a {
			if _, err := ref.Step(); err != nil {
				return nil, fmt.Errorf("inject: dataset reference walk: %w", err)
			}
		}
		cp := ref.Checkpoint()
		for _, i := range planned {
			if err := inj.RestoreFrom(cp); err != nil {
				return nil, fmt.Errorf("inject: dataset restore: %w", err)
			}
			act, _, err := r.injectActivation(inj, plans[i])
			if err != nil {
				return nil, err
			}
			// A signature exists only when the activation reached VM entry.
			out := act.Outcome
			if out.HasFeatures && out.Features != r.Golden[a].Outcome.Features {
				diverged[i], sigs[i] = true, out.Features
			}
		}
	}
	var samples ml.Dataset
	for i := range plans {
		if diverged[i] {
			samples = append(samples, ml.Sample{Features: sigs[i], Correct: false})
		}
	}
	return samples, nil
}
