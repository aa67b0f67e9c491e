package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xentry/internal/experiments"
	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/workload"
)

// runSample is one traced RunOne call.
type runSample struct {
	us        float64
	pruned    inject.PruneKind
	target    string
	recovered bool
}

// campaignStats are the layer numbers a traced campaign measures beyond
// its spans.
type campaignStats struct {
	model       *ml.Tree
	goldenInstr uint64
	// poolBytes is the largest live-heap growth across one benchmark's
	// preparation: the golden run, checkpoint pool and prune tables a
	// prepared benchmark holds. It is read between forced collections,
	// whose cost lands in the tracing overhead.
	poolBytes int64
	samples   []runSample
}

// siteTarget maps a plan's site class to the target class it was drawn
// from ("ctl" plans come from the "gpr" register draw).
func siteTarget(s inject.Site) string {
	if s == inject.SiteCtl {
		return "gpr"
	}
	return s.String()
}

// runTag labels a RunOne span with its provenance and target class.
func runTag(o inject.Outcome) string {
	tag := o.Pruned.String() + "/" + siteTarget(o.Plan.Site)
	if o.Recovery.Attempted {
		tag += "/recovery"
	}
	return tag
}

// tracedTrain is experiments.Train decomposed into its public layer
// calls — two dataset collections, two tree fits, two evaluations — with
// a span around each. The model it returns is TrainResult.Best of the
// same parts, so the campaign it feeds is the untraced one.
func tracedTrain(tr *tracer, run string, parent spanID, seed int64) (*ml.Tree, error) {
	sc := trainScale(seed)
	ts := tr.start(run, "bench.train", parent)
	defer ts.end()
	collect := func(cfg inject.DatasetConfig) (ml.Dataset, error) {
		sp := tr.start(run, "inject.CollectDataset", ts.id())
		defer sp.end()
		return inject.CollectDataset(cfg)
	}
	fit := func(ds ml.Dataset, cfg ml.Config) (*ml.Tree, error) {
		sp := tr.start(run, "ml.Train", ts.id())
		defer sp.end()
		return ml.Train(ds, cfg)
	}
	eval := func(t *ml.Tree, ds ml.Dataset) ml.Confusion {
		sp := tr.start(run, "ml.Evaluate", ts.id())
		defer sp.end()
		return ml.Evaluate(t, ds)
	}
	trainCfg := inject.DatasetConfig{
		Benchmarks:             workload.Names(),
		Mode:                   workload.PV,
		FaultFreeRuns:          sc.TrainFaultFreeRuns,
		Activations:            sc.Activations,
		InjectionsPerBenchmark: sc.TrainInjections / len(workload.Names()),
		Seed:                   sc.Seed,
		Workers:                sc.Workers,
	}
	trainSet, err := collect(trainCfg)
	if err != nil {
		return nil, err
	}
	testCfg := trainCfg
	testCfg.FaultFreeRuns = sc.TestFaultFreeRuns
	testCfg.InjectionsPerBenchmark = sc.TestInjections / len(workload.Names())
	testCfg.Seed = sc.Seed + 777777
	testSet, err := collect(testCfg)
	if err != nil {
		return nil, err
	}
	dt, err := fit(trainSet, ml.DefaultDecisionTree())
	if err != nil {
		return nil, err
	}
	rt, err := fit(trainSet, ml.DefaultRandomTree(sc.Seed))
	if err != nil {
		return nil, err
	}
	res := &experiments.TrainResult{DecisionTree: dt, RandomTree: rt,
		DecisionTreeEval: eval(dt, testSet), RandomEval: eval(rt, testSet)}
	return res.Best(), nil
}

// tracedCampaign runs the workload's campaign through the layers' public
// functions — training, inject.PrepareBenchmark, one Worker.RunOne per
// plan on a pool of workers, the tally fold, the report — with a span
// around every call. It is inject.RunCampaign spelled out; its report
// must be byte-identical to the untraced run's, which is what proves the
// spelled-out version faithful.
func (w workloadSpec) tracedCampaign(tr *tracer, run string, seed int64) (*repResult, *campaignStats, error) {
	start := time.Now()
	root := tr.start(run, "bench.rep", 0)
	defer root.end()
	cs := &campaignStats{}
	model, err := tracedTrain(tr, run, root.id(), seed)
	if err != nil {
		return nil, nil, err
	}
	cs.model = model
	cfg, err := w.campaignConfig(seed, model)
	if err != nil {
		return nil, nil, err
	}
	result := &inject.CampaignResult{PerBenchmark: map[string]*inject.Tally{}, Total: inject.NewTally()}
	var firstOutcome atomic.Int64
	for bi, bench := range cfg.Benchmarks {
		bs := tr.start(run, "bench.benchmark", root.id())
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sp := tr.start(run, "inject.PrepareBenchmark", bs.id())
		br, err := inject.PrepareBenchmark(cfg, bi)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		cs.poolBytes = max(cs.poolBytes, int64(after.HeapAlloc)-int64(before.HeapAlloc))
		for i := range br.Runner.Golden {
			cs.goldenInstr += br.Runner.Golden[i].Outcome.Result.Steps
		}

		order := inject.ActivationOrder(br.Plans)
		outcomes := make([]inject.Outcome, len(br.Plans))
		samples := make([][]runSample, cfg.Workers)
		errs := make([]error, cfg.Workers)
		var next atomic.Int64
		var wg sync.WaitGroup
		for wi := 0; wi < cfg.Workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				ws := tr.start(run, "bench.worker", bs.id())
				defer ws.end()
				buf := tr.buffer()
				defer buf.flush()
				worker := br.Runner.NewWorker()
				for {
					n := next.Add(1) - 1
					if n >= int64(len(order)) {
						return
					}
					i := order[n]
					t0 := time.Now()
					o, err := worker.RunOne(br.Plans[i])
					t1 := time.Now()
					if err != nil {
						errs[wi] = fmt.Errorf("inject: %s plan %v: %w", bench, br.Plans[i], err)
						return
					}
					firstOutcome.CompareAndSwap(0, int64(t1.Sub(start)))
					outcomes[i] = o
					buf.record(run, "inject.Worker.RunOne", runTag(o), ws.id(), t0, t1)
					samples[wi] = append(samples[wi], runSample{
						us:        float64(t1.Sub(t0)) / float64(time.Microsecond),
						pruned:    o.Pruned,
						target:    siteTarget(o.Plan.Site),
						recovered: o.Recovery.Attempted,
					})
				}
			}(wi)
		}
		wg.Wait()
		for wi := range errs {
			if errs[wi] != nil {
				return nil, nil, errs[wi]
			}
			cs.samples = append(cs.samples, samples[wi]...)
		}
		// One span covers the benchmark's whole fold: a span per Add would
		// cost more than the call it measures.
		sp = tr.start(run, "inject.Tally.Add", bs.id())
		tally := inject.NewTally()
		for _, o := range outcomes {
			tally.Add(o)
		}
		result.PerBenchmark[bench] = tally
		result.Total.Merge(tally)
		sp.end()
		bs.end()
	}
	sp := tr.start(run, "inject.CampaignResult.Normalize", root.id())
	result.Normalize()
	sp.end()
	sp = tr.start(run, "experiments.NewCampaignReport", root.id())
	rep := experiments.NewCampaignReport(result, workload.Names())
	sp.end()
	sp = tr.start(run, "experiments.CampaignReport.EncodeJSON", root.id())
	data, err := rep.EncodeJSON()
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	return &repResult{setup: time.Duration(firstOutcome.Load()), wall: time.Since(start),
		report: data, parsed: rep, model: model}, cs, nil
}
