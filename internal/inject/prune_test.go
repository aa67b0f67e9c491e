package inject

import (
	"math/rand"
	"reflect"
	"testing"

	"xentry/internal/core"
	"xentry/internal/detect"
	"xentry/internal/sim"
	"xentry/internal/workload"
)

// stripPrune zeroes the provenance counters — the one field a pruned
// campaign is allowed to differ from an unpruned one in — so the
// differentials below can DeepEqual everything else.
func stripPrune(res *CampaignResult) {
	for _, tl := range res.PerBenchmark {
		tl.Prune = PruneStats{}
	}
	if res.Total != nil {
		res.Total.Prune = PruneStats{}
	}
}

// TestPruneCampaignBitIdentical is the tentpole's proof obligation: with
// dead-value pre-pruning and convergence early exit enabled, every
// campaign aggregate except the provenance counters is bit-identical to
// the full-budget engine's.
func TestPruneCampaignBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential")
	}
	cfg := diffCampaign()
	pruned, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePrune = true
	full, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pruned.Normalize()
	full.Normalize()

	// The differential is only meaningful if both mechanisms actually
	// fired on the pruned side and neither fired on the disabled side.
	p := pruned.Total.Prune
	if p.Dead == 0 || p.Converged == 0 {
		t.Fatalf("pruning did not fire: %+v", p)
	}
	if p.Dead+p.Converged+p.Full != pruned.Total.Injections {
		t.Fatalf("provenance counts %+v do not partition %d injections",
			p, pruned.Total.Injections)
	}
	if f := full.Total.Prune; f.Full != full.Total.Injections || f.Dead != 0 || f.Converged != 0 {
		t.Fatalf("-prune=off side still pruned: %+v", f)
	}

	stripPrune(pruned)
	stripPrune(full)
	if !reflect.DeepEqual(pruned, full) {
		t.Fatalf("pruned and full campaigns diverge\npruned total: %+v\nfull total: %+v",
			pruned.Total, full.Total)
	}
}

// TestPruneRecoveryBitIdentical repeats the differential with live
// recovery enabled — the path where reference-run false positives make
// the recorded verdicts (recovered detections, restored state) diverge
// most from the golden run's.
func TestPruneRecoveryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential")
	}
	cfg := diffCampaign()
	cfg.Recover = true
	cfg.InjectionsPerBenchmark = 25
	cfg.Model = testModel(t)
	pruned, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePrune = true
	full, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pruned.Normalize()
	full.Normalize()
	stripPrune(pruned)
	stripPrune(full)
	if !reflect.DeepEqual(pruned, full) {
		t.Fatalf("recovery campaigns diverge\npruned total: %+v\nfull total: %+v",
			pruned.Total, full.Total)
	}
}

// TestPruneOutcomesBitIdenticalPerPlan is the per-outcome version of the
// campaign differential: for every plan in a large random population, the
// pruned engine's Outcome must equal the full engine's in every field but
// Pruned. Failures here name the exact plan, which the aggregate
// differentials cannot.
func TestPruneOutcomesBitIdenticalPerPlan(t *testing.T) {
	cfg := sim.DefaultConfig("postmark", 5)
	pruned, err := NewRunner(cfg, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewRunner(cfg, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	full.DisablePrune = true
	rng := rand.New(rand.NewSource(23))
	pw, fw := pruned.NewWorker(), full.NewWorker()
	var dead, converged int
	for i := 0; i < 300; i++ {
		plan := pruned.RandomPlan(rng)
		po, err := pw.RunOne(plan)
		if err != nil {
			t.Fatal(err)
		}
		fo, err := fw.RunOne(plan)
		if err != nil {
			t.Fatal(err)
		}
		if fo.Pruned != PruneNone {
			t.Fatalf("disabled runner pruned plan %v: %v", plan, fo.Pruned)
		}
		switch po.Pruned {
		case PruneDead:
			dead++
		case PruneConverged:
			converged++
		}
		po.Pruned = PruneNone
		if !reflect.DeepEqual(po, fo) {
			t.Fatalf("plan %v diverges:\npruned %+v\nfull   %+v", plan, po, fo)
		}
	}
	if dead == 0 || converged == 0 {
		t.Fatalf("population did not exercise both mechanisms: dead=%d converged=%d",
			dead, converged)
	}
}

// TestPruneDisabledWithPluginDetectors: plugin detectors may carry state
// the architectural fingerprint cannot see, so their presence must force
// every run to its full budget.
func TestPruneDisabledWithPluginDetectors(t *testing.T) {
	cfg := CampaignConfig{
		Benchmarks:             []string{"postmark"},
		Mode:                   workload.PV,
		InjectionsPerBenchmark: 20,
		Activations:            40,
		Seed:                   11,
		Workers:                2,
		Detection:              core.FullDetection(),
		Detectors:              []detect.Factory{newSigSetDetector},
	}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Total.Prune; p.Full != res.Total.Injections || p.Dead != 0 || p.Converged != 0 {
		t.Fatalf("pruning ran under plugin detectors: %+v", p)
	}
}

// TestCheckpointOffReusesWorkerMachine: with checkpointing disabled the
// worker must still reuse its machine via the reset-state checkpoint
// instead of constructing a fresh simulator per run (the K=off campaign
// path was ~8x the allocations of K>=1 for no simulation benefit).
func TestCheckpointOffReusesWorkerMachine(t *testing.T) {
	r, err := NewRunner(sim.DefaultConfig("postmark", 5), 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.CheckpointEvery = -1
	w := r.NewWorker()
	rng := rand.New(rand.NewSource(5))
	if _, err := w.RunOne(r.RandomPlan(rng)); err != nil {
		t.Fatal(err)
	}
	first := w.m
	if first == nil {
		t.Fatal("worker did not keep its machine with checkpointing off")
	}
	for i := 0; i < 5; i++ {
		if _, err := w.RunOne(r.RandomPlan(rng)); err != nil {
			t.Fatal(err)
		}
		if w.m != first {
			t.Fatalf("run %d rebuilt the worker machine", i)
		}
	}
}
