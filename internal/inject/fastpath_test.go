package inject

import (
	"errors"
	"reflect"
	"testing"

	"xentry/internal/core"
	"xentry/internal/workload"
)

// diffCampaign is a full campaign at the quick experiment scale: every
// benchmark, full detection, default checkpointing.
func diffCampaign() CampaignConfig {
	return CampaignConfig{
		Benchmarks:             workload.Names(),
		Mode:                   workload.PV,
		InjectionsPerBenchmark: 40,
		Activations:            80,
		Seed:                   7,
		Workers:                2,
		Detection:              core.FullDetection(),
	}
}

// TestFastPathCampaignBitIdentical holds the production stepper to the
// reference: threaded dispatch, pointer fetch, D-TLB, batched PMU
// retirement, and PreStep disarm change no architectural outcome. The same
// campaign runs on the fast path and on the seed-equivalent forced-slow
// path; every tally must match exactly.
func TestFastPathCampaignBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential")
	}
	run := func(mutate func(*CampaignConfig)) *CampaignResult {
		cfg := diffCampaign()
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.Normalize()
		return res
	}

	fast := run(nil)
	slow := run(func(c *CampaignConfig) { c.SlowPath = true })
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("fast and slow campaigns diverge\nfast total: %+v\nslow total: %+v",
			fast.Total, slow.Total)
	}

	// The slow path with checkpointing disabled is the seed configuration
	// verbatim: straight-line re-simulation, copy fetch, per-access
	// region search, per-instruction PMU retirement.
	seed := run(func(c *CampaignConfig) { c.SlowPath = true; c.CheckpointEvery = -1 })
	if !reflect.DeepEqual(fast, seed) {
		t.Fatalf("fast path diverges from seed configuration\nfast total: %+v\nseed total: %+v",
			fast.Total, seed.Total)
	}
}

// TestFastPathRecoveryBitIdentical repeats the differential with live
// recovery enabled — the path where a disarmed PreStep hook and the COW
// snapshot/restore cycle interact.
func TestFastPathRecoveryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign differential")
	}
	cfg := diffCampaign()
	cfg.Recover = true
	cfg.InjectionsPerBenchmark = 25
	fast, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SlowPath = true
	slow, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast.Normalize()
	slow.Normalize()
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("recovery campaigns diverge\nfast total: %+v\nslow total: %+v",
			fast.Total, slow.Total)
	}
}

// TestFastPathDatasetBitIdentical proves training-data collection — the
// other production consumer of the simulator — emits byte-identical
// samples on both paths.
func TestFastPathDatasetBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset differential")
	}
	cfg := DatasetConfig{
		Benchmarks:             workload.Names(),
		Mode:                   workload.PV,
		FaultFreeRuns:          2,
		Activations:            80,
		InjectionsPerBenchmark: 30,
		Seed:                   7,
		Workers:                2,
	}
	fast, err := CollectDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SlowPath = true
	slow, err := CollectDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, slow) {
		if len(fast) != len(slow) {
			t.Fatalf("dataset sizes diverge: fast %d, slow %d", len(fast), len(slow))
		}
		for i := range fast {
			if !reflect.DeepEqual(fast[i], slow[i]) {
				t.Fatalf("sample %d diverges:\nfast %+v\nslow %+v", i, fast[i], slow[i])
			}
		}
	}
}

// TestSlowPathRefusesDTLB: the reference stepper runs memory uncached, so
// the D-TLB fault site does not exist on it. A campaign that would draw
// dtlb plans there is refused with ErrSlowPathDTLB at every entry point
// that validates a campaign, instead of silently measuring an inert site.
func TestSlowPathRefusesDTLB(t *testing.T) {
	cfg := diffCampaign()
	cfg.InjectionsPerBenchmark = 4
	cfg.VCPUs = 4
	cfg.Targets = []string{"gpr", " DTLB"}
	cfg.SlowPath = true
	if _, err := RunCampaign(cfg); !errors.Is(err, ErrSlowPathDTLB) {
		t.Errorf("RunCampaign: err = %v, want ErrSlowPathDTLB", err)
	}
	if _, err := PrepareBenchmark(cfg, 0); !errors.Is(err, ErrSlowPathDTLB) {
		t.Errorf("PrepareBenchmark: err = %v, want ErrSlowPathDTLB", err)
	}
	if _, err := PreparePlans(cfg, 0); !errors.Is(err, ErrSlowPathDTLB) {
		t.Errorf("PreparePlans: err = %v, want ErrSlowPathDTLB", err)
	}

	// Either half alone is a valid campaign.
	cfg.Targets = []string{"gpr"}
	if _, err := PreparePlans(cfg, 0); err != nil {
		t.Errorf("SlowPath with gpr targets: %v", err)
	}
	cfg.Targets, cfg.SlowPath = []string{"dtlb"}, false
	if _, err := PreparePlans(cfg, 0); err != nil {
		t.Errorf("dtlb targets on the production stepper: %v", err)
	}
}
