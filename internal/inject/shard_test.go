package inject

import (
	"reflect"
	"testing"
)

// testBenchmarkRun prepares a small campaign's only benchmark once.
func testBenchmarkRun(t *testing.T) (CampaignConfig, *BenchmarkRun) {
	t.Helper()
	cfg := DefaultCampaign(24, 19)
	cfg.Benchmarks = []string{"postmark"}
	cfg.Activations = 40
	br, err := PrepareBenchmark(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, br
}

// TestPrepareBenchmarkDeterministic: the same (config, index) always
// yields the same plans — the invariant that lets any process anywhere
// execute any shard.
func TestPrepareBenchmarkDeterministic(t *testing.T) {
	cfg, br := testBenchmarkRun(t)
	br2, err := PrepareBenchmark(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(br.Plans, br2.Plans) {
		t.Error("PrepareBenchmark plans differ across calls")
	}
	if _, err := PrepareBenchmark(cfg, 5); err == nil {
		t.Error("out-of-range benchmark index must fail")
	}
}

func TestActivationOrderAndShards(t *testing.T) {
	_, br := testBenchmarkRun(t)
	order := ActivationOrder(br.Plans)
	if len(order) != len(br.Plans) {
		t.Fatalf("order has %d indices, want %d", len(order), len(br.Plans))
	}
	seen := map[int]bool{}
	for k := 1; k < len(order); k++ {
		a, b := br.Plans[order[k-1]], br.Plans[order[k]]
		if a.Activation > b.Activation {
			t.Fatalf("order not sorted by activation at %d", k)
		}
		if a.Activation == b.Activation && order[k-1] > order[k] {
			t.Fatalf("order not stable at %d", k)
		}
	}
	for _, i := range order {
		if seen[i] {
			t.Fatalf("index %d appears twice", i)
		}
		seen[i] = true
	}

	shards := SliceShards(order, 7)
	var flat []int
	for si, sh := range shards {
		if len(sh) == 0 || len(sh) > 7 {
			t.Fatalf("shard %d has %d indices", si, len(sh))
		}
		flat = append(flat, sh...)
	}
	if !reflect.DeepEqual(flat, order) {
		t.Error("shards do not concatenate back to the order")
	}
	if got := SliceShards(order, 0); len(got) != 1 || len(got[0]) != len(order) {
		t.Error("size<=0 must yield a single shard")
	}
	if got := SliceShards(nil, 4); got != nil {
		t.Error("empty order must yield no shards")
	}
}
