package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/store"
)

// handBuiltModel is a transition tree no training run produces: it flags
// every VM entry that retired any instruction as incorrect.
func handBuiltModel() *ml.Tree {
	return &ml.Tree{Cfg: ml.DefaultRandomTree(1), Root: &ml.Node{Feature: ml.FeatRT, Threshold: 0,
		Left: &ml.Node{Leaf: true, Correct: true}, Right: &ml.Node{Leaf: true}}}
}

func modelHex(t *testing.T, tree *ml.Tree) string {
	t.Helper()
	sum, err := tree.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(sum[:])
}

// runFleetWorkers runs n RunWorker goroutines against a fleet and returns
// a wait function reporting their errors.
func runFleetWorkers(ctx context.Context, f *Fleet, campaign string, n int) func() error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(ctx, WorkerOptions{
				Coordinator:   f.Addr(),
				Campaign:      campaign,
				Name:          fmt.Sprintf("m%d", i),
				BatchRecords:  4,
				FlushInterval: 5 * time.Millisecond,
				RetryInterval: 20 * time.Millisecond,
				MaxDials:      600,
			})
		}(i)
	}
	return func() error {
		wg.Wait()
		return errors.Join(errs...)
	}
}

// TestFleetWorkersExecuteShippedModel: fleet workers run the tree the
// coordinator's Run config carries, even though the spec asks for
// training — a worker that retrained from the spec would fold a
// different result.
func TestFleetWorkersExecuteShippedModel(t *testing.T) {
	spec, cfg, _ := fleetSpec(t, "fleet-shipped-model")
	spec.TrainInjections = 600
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model = handBuiltModel()
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noModel := cfg
	noModel.Model = nil
	baseline, err := inject.RunCampaign(noModel)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want, baseline) {
		t.Fatal("the hand-built model changes nothing; the differential cannot tell models apart")
	}

	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := testStore(t, cfg, spec.ID)
	e := &Engine{Store: st, Fleet: f, Spec: specJSON, ShardSize: 5, ShardTimeout: 30 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wait := runFleetWorkers(ctx, f, spec.ID, 2)
	got, err := e.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	got.Normalize()
	want.Normalize()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fleet result diverges from the shipped model's in-process run:\n got %+v\nwant %+v", got.Total, want.Total)
	}
	if h := st.Meta().ModelSHA256; h != modelHex(t, cfg.Model) {
		t.Errorf("store pins model %q, want %q", h, modelHex(t, cfg.Model))
	}
}

// TestServerFleetTrainedModel is the fleet differential with a real
// (small) training run: the coordinator trains once, ships the bytes,
// and the served result equals an in-process run with the same model.
func TestServerFleetTrainedModel(t *testing.T) {
	spec, cfg, _ := fleetSpec(t, "fleet-trained")
	spec.TrainInjections = 300
	model, err := spec.model()
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || model.Size() < 3 {
		t.Fatalf("training produced no usable model")
	}
	baseline, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model = model
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want, baseline) {
		t.Fatal("the trained model changes nothing; the differential does not exercise it")
	}

	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := NewServer(Config{DataDir: t.TempDir(), ShardSize: 5, Fleet: f})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{Base: ts.URL}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wait := runFleetWorkers(ctx, f, spec.ID, 2)
	rep, err := client.RunToCompletion(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	want.Normalize()
	if !reflect.DeepEqual(rep.Result, want) {
		t.Errorf("served fleet result diverges from the in-process run with the same model:\n got %+v\nwant %+v",
			rep.Result.Total, want.Total)
	}
	st, err := client.Status(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.ModelSHA256 != modelHex(t, model) {
		t.Errorf("status model_sha256 = %q, want %q", st.ModelSHA256, modelHex(t, model))
	}
	if st.Build != buildInfo() {
		t.Errorf("status build = %q, want %q", st.Build, buildInfo())
	}
}

// TestEngineModelMismatchFails: a store whose meta pins a different model
// refuses the run with store.ErrModelMismatch before anything executes.
func TestEngineModelMismatchFails(t *testing.T) {
	cfg := testCampaignConfig()
	cfg.Model = handBuiltModel()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Meta{
		CampaignID:  "c-mismatch",
		Benchmarks:  cfg.Benchmarks,
		Injections:  cfg.InjectionsPerBenchmark,
		Activations: cfg.Activations,
		Seed:        cfg.Seed,
		ModelSHA256: strings.Repeat("ab", 32),
	}, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var outcomes atomic.Int64
	e := &Engine{Store: st, Workers: 2, ShardSize: 6, OnEvent: func(ev Event) {
		if ev.Type == EventOutcome {
			outcomes.Add(1)
		}
	}}
	if _, err := e.Run(context.Background(), cfg); !errors.Is(err, store.ErrModelMismatch) {
		t.Fatalf("run over a store pinning another model: %v, want ErrModelMismatch", err)
	}
	if n := st.TotalCount(); n != 0 || outcomes.Load() != 0 {
		t.Fatalf("mismatched run stored %d outcomes (%d events)", n, outcomes.Load())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err != nil || fi.Size() != 0 {
			t.Errorf("segment %s holds bytes after a refused run", seg)
		}
	}
}

// TestServerResumeRefusesOutcomeChangingSpec: resubmitting a stored
// campaign under a spec that would change its plans is a 409, while one
// that only changes how shards run resumes.
func TestServerResumeRefusesOutcomeChangingSpec(t *testing.T) {
	dataDir := t.TempDir()
	serve := func() *Client {
		s, err := NewServer(Config{DataDir: dataDir, Workers: 2, ShardSize: 6})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return &Client{Base: ts.URL}
	}
	cfg := testCampaignConfig()
	spec := CampaignSpec{
		ID:                     "resume-spec",
		Benchmarks:             cfg.Benchmarks,
		InjectionsPerBenchmark: cfg.InjectionsPerBenchmark,
		Activations:            cfg.Activations,
		Seed:                   cfg.Seed,
	}
	ctx := context.Background()
	first, err := serve().RunToCompletion(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*CampaignSpec){
		"targets":          func(sp *CampaignSpec) { sp.Targets = []string{"gpr", "dtlb"} },
		"train_injections": func(sp *CampaignSpec) { sp.TrainInjections = 60 },
	} {
		changed := spec
		mutate(&changed)
		if _, err := serve().Submit(changed); err == nil || !strings.Contains(err.Error(), "409") {
			t.Errorf("resubmission changing %s: err = %v, want 409", name, err)
		}
	}

	// Shard layout, session count, the checkpoint interval and equivalent
	// spellings of defaults do not change outcomes: the campaign resumes
	// (here: is already complete) and reports the same result.
	relaid := spec
	relaid.ShardSize, relaid.PoolWorkers, relaid.CheckpointEvery = 3, 1, -1
	relaid.Prune, relaid.VCPUs, relaid.Targets = "on", 1, []string{"GPR"}
	again, err := serve().RunToCompletion(ctx, relaid, nil)
	if err != nil {
		t.Fatalf("resubmission changing only the shard layout: %v", err)
	}
	if !reflect.DeepEqual(again.Result, first.Result) {
		t.Error("resumed campaign reports a different result")
	}
}
