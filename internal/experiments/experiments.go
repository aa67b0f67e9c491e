// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated system: Fig. 3 (activation frequencies),
// the Section III-B classifier study (with the Fig. 6 tree), Fig. 7
// (fault-free overhead), Figs. 8–10 and Table II (the injection campaign),
// and Fig. 11 (recovery overhead under false positives). Each experiment
// returns a structured result with a Render method; the cmd tools and the
// benchmark harness are thin wrappers over this package.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"xentry/internal/core"
	"xentry/internal/detect"
	"xentry/internal/guest"
	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/recovery"
	"xentry/internal/sim"
	"xentry/internal/stats"
	"xentry/internal/workload"
)

// Scale sizes the experiments. The paper's full campaign is 30,000
// injections; DefaultScale runs a faithful-but-faster version, and
// QuickScale is for tests and benchmarks.
type Scale struct {
	// Seed drives everything deterministically.
	Seed int64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int

	// Activations is the workload length of every simulated run.
	Activations int

	// TrainFaultFreeRuns / TrainInjections size the training collection;
	// TestInjections sizes the held-out testing collection.
	TrainFaultFreeRuns int
	TrainInjections    int
	TestFaultFreeRuns  int
	TestInjections     int

	// CampaignInjections is the per-benchmark injection count for the
	// Figs. 8–10 / Table II campaign.
	CampaignInjections int

	// FreqSeconds is the number of simulated seconds per benchmark/mode
	// in the Fig. 3 frequency study.
	FreqSeconds int

	// OverheadRuns is the number of differently seeded runs per benchmark
	// in the Fig. 7 study.
	OverheadRuns int

	// RecoveryActivations / RecoveryReps size the Fig. 11 estimate.
	RecoveryActivations int
	RecoveryReps        int

	// Detectors names plugin detector factories (detect.RegisterFactory)
	// to run behind the built-in pipeline on every campaign machine. Names
	// with no registered factory fail CampaignConfigFor.
	Detectors []string

	// DisablePrune forces every injection run to its full activation
	// budget instead of convergence pruning (xentry-campaign -prune=off).
	// Aggregates are bit-identical either way apart from the provenance
	// counters; only wall-clock changes.
	DisablePrune bool

	// Recovery names the recovery-engine strategy armed on every campaign
	// machine (xentry-campaign -recover): ""/"off"/"none" = no engine,
	// "microreboot", "restore", or "policy". Unknown names fail
	// CampaignConfigFor.
	Recovery string

	// VCPUs is the number of virtual CPUs on every campaign machine
	// (xentry-campaign -vcpus). Zero means one — the legacy single-CPU
	// machine, bit-identical to the pre-SMP engine.
	VCPUs int

	// Targets selects the fault-site classes the campaign draws plans
	// from (xentry-campaign -targets): any of inject.TargetNames().
	// Empty means ["gpr"], the legacy register-file campaign. Unknown
	// names fail CampaignConfigFor.
	Targets []string
}

// DefaultScale is a faithful reduction of the paper's sizes that completes
// in minutes on a laptop.
func DefaultScale() Scale {
	return Scale{
		Seed:                20140901,
		Activations:         160,
		TrainFaultFreeRuns:  6,
		TrainInjections:     12000,
		TestFaultFreeRuns:   3,
		TestInjections:      6000,
		CampaignInjections:  900,
		FreqSeconds:         300,
		OverheadRuns:        10,
		RecoveryActivations: 4000,
		RecoveryReps:        100,
	}
}

// QuickScale completes in seconds, for tests and testing.B harnesses.
func QuickScale() Scale {
	return Scale{
		Seed:                7,
		Activations:         80,
		TrainFaultFreeRuns:  2,
		TrainInjections:     1500,
		TestFaultFreeRuns:   1,
		TestInjections:      600,
		CampaignInjections:  120,
		FreqSeconds:         60,
		OverheadRuns:        3,
		RecoveryActivations: 800,
		RecoveryReps:        25,
	}
}

// ---------------------------------------------------------------------------
// Fig. 3: hypervisor activation frequency
// ---------------------------------------------------------------------------

// Fig3Row is one benchmark × mode box.
type Fig3Row struct {
	Benchmark string
	Mode      workload.Mode
	Summary   stats.FiveNum
}

// Fig3Result is the activation-frequency study.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 measures per-second hypervisor activation frequencies for every
// benchmark under both virtualization modes, using each configuration's
// measured mean handler cost.
func Fig3(sc Scale) (*Fig3Result, error) {
	res := &Fig3Result{}
	for _, bench := range workload.Names() {
		for _, mode := range []workload.Mode{workload.PV, workload.HVM} {
			cfg := sim.Config{
				Benchmark: bench, Mode: mode, Domains: 3,
				Seed: sc.Seed, Detection: core.FullDetection(),
			}
			cost, err := sim.MeanHandlerCost(cfg, min(sc.Activations, 200))
			if err != nil {
				return nil, err
			}
			prof, err := workload.ByName(bench)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(sc.Seed + int64(mode)))
			samples := make([]float64, sc.FreqSeconds)
			for i := range samples {
				samples[i] = prof.FrequencySample(mode, rng, cost)
			}
			res.Rows = append(res.Rows, Fig3Row{
				Benchmark: bench, Mode: mode, Summary: stats.Summarize(samples),
			})
		}
	}
	return res, nil
}

// Render formats the study as the Fig. 3 box-plot table.
func (r *Fig3Result) Render() string {
	t := stats.NewTable("benchmark", "mode", "min/s", "q1/s", "median/s", "q3/s", "max/s")
	for _, row := range r.Rows {
		s := row.Summary
		t.AddRow(row.Benchmark, row.Mode.String(),
			fmt.Sprintf("%.0f", s.Min), fmt.Sprintf("%.0f", s.Q1),
			fmt.Sprintf("%.0f", s.Median), fmt.Sprintf("%.0f", s.Q3),
			fmt.Sprintf("%.0f", s.Max))
	}
	return "Fig. 3 — hypervisor activation frequency (per second)\n" + t.String()
}

// ---------------------------------------------------------------------------
// Section III-B: classifier construction and accuracy (and Fig. 6)
// ---------------------------------------------------------------------------

// TrainResult is the classifier study.
type TrainResult struct {
	TrainSamples, TestSamples     int
	TrainCorrect, TrainIncorrect  int
	TestCorrect, TestIncorrect    int
	DecisionTree, RandomTree      *ml.Tree
	DecisionTreeEval, RandomEval  ml.Confusion
	DecisionTreeSize, RandomSize  int
	DecisionTreeDepth, RandomDeep int
}

// DatasetConfigs sizes the scale's train/test split: the testing set is
// drawn from a disjoint seed so it stays held out.
func (sc Scale) DatasetConfigs() (train, test inject.DatasetConfig) {
	train = inject.DatasetConfig{
		Benchmarks:             workload.Names(),
		Mode:                   workload.PV,
		FaultFreeRuns:          sc.TrainFaultFreeRuns,
		Activations:            sc.Activations,
		InjectionsPerBenchmark: sc.TrainInjections / len(workload.Names()),
		Seed:                   sc.Seed,
		Workers:                sc.Workers,
	}
	test = train
	test.FaultFreeRuns = sc.TestFaultFreeRuns
	test.InjectionsPerBenchmark = sc.TestInjections / len(workload.Names())
	test.Seed = sc.Seed + 777777
	return train, test
}

// collectSplit collects the training and testing datasets of a scale.
func collectSplit(sc Scale) (train, test ml.Dataset, err error) {
	trainCfg, testCfg := sc.DatasetConfigs()
	if train, err = inject.CollectDataset(trainCfg); err != nil {
		return nil, nil, err
	}
	if test, err = inject.CollectDataset(testCfg); err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// Train collects a training and a held-out testing dataset from injection
// and fault-free runs (the paper's ~23,400/~17,700 run split), trains both
// tree algorithms, and evaluates them on the testing set.
func Train(sc Scale) (*TrainResult, error) {
	trainSet, testSet, err := collectSplit(sc)
	if err != nil {
		return nil, err
	}

	dt, err := ml.Train(trainSet, ml.DefaultDecisionTree())
	if err != nil {
		return nil, err
	}
	rt, err := ml.Train(trainSet, ml.DefaultRandomTree(sc.Seed))
	if err != nil {
		return nil, err
	}
	res := &TrainResult{
		TrainSamples:      len(trainSet),
		TestSamples:       len(testSet),
		DecisionTree:      dt,
		RandomTree:        rt,
		DecisionTreeEval:  ml.Evaluate(dt, testSet),
		RandomEval:        ml.Evaluate(rt, testSet),
		DecisionTreeSize:  dt.Size(),
		RandomSize:        rt.Size(),
		DecisionTreeDepth: dt.Depth(),
		RandomDeep:        rt.Depth(),
	}
	res.TrainCorrect, res.TrainIncorrect = trainSet.Counts()
	res.TestCorrect, res.TestIncorrect = testSet.Counts()
	return res, nil
}

// Render formats the classifier study.
func (r *TrainResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section III-B — VM transition detection models\n")
	fmt.Fprintf(&b, "training set: %d samples (%d correct, %d incorrect)\n",
		r.TrainSamples, r.TrainCorrect, r.TrainIncorrect)
	fmt.Fprintf(&b, "testing set:  %d samples (%d correct, %d incorrect)\n",
		r.TestSamples, r.TestCorrect, r.TestIncorrect)
	t := stats.NewTable("model", "accuracy", "coverage", "fpr", "nodes", "depth")
	t.AddRow("decision tree", stats.Pct(r.DecisionTreeEval.Accuracy()),
		stats.Pct(r.DecisionTreeEval.Coverage()),
		fmt.Sprintf("%.2f%%", 100*r.DecisionTreeEval.FalsePositiveRate()),
		fmt.Sprintf("%d", r.DecisionTreeSize), fmt.Sprintf("%d", r.DecisionTreeDepth))
	t.AddRow("random tree", stats.Pct(r.RandomEval.Accuracy()),
		stats.Pct(r.RandomEval.Coverage()),
		fmt.Sprintf("%.2f%%", 100*r.RandomEval.FalsePositiveRate()),
		fmt.Sprintf("%d", r.RandomSize), fmt.Sprintf("%d", r.RandomDeep))
	b.WriteString(t.String())
	return b.String()
}

// Best returns the better-scoring model (the paper selects the random
// tree).
func (r *TrainResult) Best() *ml.Tree {
	if r.RandomEval.Accuracy() >= r.DecisionTreeEval.Accuracy() {
		return r.RandomTree
	}
	return r.DecisionTree
}

// ---------------------------------------------------------------------------
// Fig. 7: fault-free performance overhead
// ---------------------------------------------------------------------------

// Fig7Row is one benchmark's overhead under the two Xentry configurations.
type Fig7Row struct {
	Benchmark string
	// RuntimeAvg/Max: runtime detection only.
	RuntimeAvg, RuntimeMax float64
	// FullAvg/Max: runtime + VM transition detection.
	FullAvg, FullMax float64
}

// Fig7Result is the overhead study.
type Fig7Result struct {
	Rows []Fig7Row
	// AvgFull is the cross-benchmark average of FullAvg (the paper's
	// headline 2.5%).
	AvgFull float64
}

// Fig7 replays identical workload streams under unmodified Xen, runtime
// detection only, and full Xentry, and reports the added-cycle fractions.
func Fig7(sc Scale, model *ml.Tree) (*Fig7Result, error) {
	res := &Fig7Result{}
	var sum float64
	for _, bench := range workload.Names() {
		row := Fig7Row{Benchmark: bench}
		var rtSum, fullSum float64
		for run := 0; run < sc.OverheadRuns; run++ {
			seed := sc.Seed + int64(run)*51407
			base, err := measureClock(bench, seed, sc.Activations, core.Options{}, nil)
			if err != nil {
				return nil, err
			}
			rt, err := measureClock(bench, seed, sc.Activations,
				core.Options{RuntimeDetection: true}, nil)
			if err != nil {
				return nil, err
			}
			full, err := measureClock(bench, seed, sc.Activations, core.FullDetection(), model)
			if err != nil {
				return nil, err
			}
			rtOv := (rt - base) / base
			fullOv := (full - base) / base
			rtSum += rtOv
			fullSum += fullOv
			if rtOv > row.RuntimeMax {
				row.RuntimeMax = rtOv
			}
			if fullOv > row.FullMax {
				row.FullMax = fullOv
			}
		}
		row.RuntimeAvg = rtSum / float64(sc.OverheadRuns)
		row.FullAvg = fullSum / float64(sc.OverheadRuns)
		sum += row.FullAvg
		res.Rows = append(res.Rows, row)
	}
	res.AvgFull = sum / float64(len(res.Rows))
	return res, nil
}

// measureClock runs one workload stream and returns its total virtual time.
func measureClock(bench string, seed int64, activations int, opts core.Options, model *ml.Tree) (float64, error) {
	cfg := sim.Config{Benchmark: bench, Mode: workload.PV, Domains: 3,
		Seed: seed, Detection: opts}
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return 0, err
	}
	if model != nil {
		m.SetModel(model)
	}
	if _, err := m.Run(activations); err != nil {
		return 0, err
	}
	return m.Clock, nil
}

// Render formats the Fig. 7 table.
func (r *Fig7Result) Render() string {
	t := stats.NewTable("benchmark", "runtime avg", "runtime max", "runtime+transition avg", "max")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark,
			fmt.Sprintf("%.2f%%", 100*row.RuntimeAvg),
			fmt.Sprintf("%.2f%%", 100*row.RuntimeMax),
			fmt.Sprintf("%.2f%%", 100*row.FullAvg),
			fmt.Sprintf("%.2f%%", 100*row.FullMax))
	}
	return fmt.Sprintf("Fig. 7 — fault-free performance overhead (avg across benchmarks %.2f%%)\n%s",
		100*r.AvgFull, t.String())
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Figs. 8-10 and Table II: the injection campaign
// ---------------------------------------------------------------------------

// Campaign runs the detection-effectiveness fault-injection campaign with
// the trained model installed.
func Campaign(sc Scale, model *ml.Tree) (*inject.CampaignResult, error) {
	return CampaignWith(sc, model, 0, nil)
}

// CampaignWith is Campaign with the campaign engine's knobs exposed:
// checkpointEvery is the golden-checkpoint interval K (0 = default,
// negative disables checkpointing) and progress, when non-nil, receives
// cumulative (done, total) after every completed injection — it is called
// concurrently from worker goroutines. The aggregates are bit-identical for
// every checkpointEvery value; only wall-clock changes.
func CampaignWith(sc Scale, model *ml.Tree, checkpointEvery int, progress func(done, total int)) (*inject.CampaignResult, error) {
	return CampaignSink(sc, model, checkpointEvery, progress, nil)
}

// CampaignConfigFor is the campaign configuration CampaignWith runs —
// exposed so durable (store-backed) runs describe the identical campaign.
// It fails when sc.Detectors names a factory the detect registry does not
// hold.
func CampaignConfigFor(sc Scale, model *ml.Tree, checkpointEvery int) (inject.CampaignConfig, error) {
	detectors, err := detect.Factories(sc.Detectors)
	if err != nil {
		return inject.CampaignConfig{}, fmt.Errorf("experiments: %w", err)
	}
	vcpus := sc.VCPUs
	if vcpus == 0 {
		vcpus = 1
	}
	if err := inject.ValidateTargets(sc.Targets, vcpus); err != nil {
		return inject.CampaignConfig{}, fmt.Errorf("experiments: %w", err)
	}
	return inject.CampaignConfig{
		Benchmarks:             workload.Names(),
		Mode:                   workload.PV,
		InjectionsPerBenchmark: sc.CampaignInjections,
		Activations:            sc.Activations,
		Seed:                   sc.Seed + 13,
		Workers:                sc.Workers,
		Detection:              core.FullDetection(),
		Model:                  model,
		CheckpointEvery:        checkpointEvery,
		Detectors:              detectors,
		DisablePrune:           sc.DisablePrune,
		Recovery:               sc.Recovery,
		VCPUs:                  sc.VCPUs,
		Targets:                sc.Targets,
	}, nil
}

// CampaignSink is CampaignWith with every outcome recorded through sink
// (e.g. a durable result store): outcomes the sink already holds are
// skipped, the rest are recorded as they complete, and the folded result
// comes from the sink — so an interrupted campaign resumes where it left
// off and still ends bit-identical to an uninterrupted run. A nil sink
// folds in memory.
func CampaignSink(sc Scale, model *ml.Tree, checkpointEvery int, progress func(done, total int), sink inject.ResultSink) (*inject.CampaignResult, error) {
	cfg, err := CampaignConfigFor(sc, model, checkpointEvery)
	if err != nil {
		return nil, err
	}
	cfg.Progress = progress
	return inject.ResumeCampaign(cfg, sink)
}

// RenderFig8 formats the overall-coverage figure: per benchmark, the share
// of manifested faults caught by each technique and the undetected rest.
// The technique columns come from campaignTechniques, so plugin verdicts
// grow columns without touching this function.
func RenderFig8(res *inject.CampaignResult) string {
	techs := campaignTechniques(res)
	hdr := []string{"benchmark", "manifested"}
	for _, tech := range techs {
		hdr = append(hdr, tech.String())
	}
	hdr = append(hdr, "undetected", "coverage")
	t := stats.NewTable(hdr...)
	addRow := func(name string, tl *inject.Tally) {
		row := []string{name, fmt.Sprintf("%d", tl.Manifested)}
		for _, tech := range techs {
			row = append(row, stats.Pct(tl.TechniqueShare(tech)))
		}
		row = append(row,
			stats.Pct(safeDiv(tl.Undetected, tl.Manifested)),
			stats.Pct(tl.Coverage()))
		t.AddRow(row...)
	}
	for _, bench := range workload.Names() {
		tl := res.PerBenchmark[bench]
		if tl == nil {
			continue
		}
		addRow(bench, tl)
	}
	addRow("AVG", res.Total)
	return "Fig. 8 — overall detection results (shares of manifested faults)\n" + t.String()
}

// RenderFig9 formats long-latency detection coverage by consequence.
func RenderFig9(res *inject.CampaignResult) string {
	t := stats.NewTable("consequence", "total", "detected", "coverage")
	for _, cons := range []guest.Consequence{
		guest.AppSDC, guest.AppCrash, guest.AllVMFailure, guest.OneVMFailure,
	} {
		ct := res.Total.ByConsequence[cons]
		if ct == nil {
			ct = &inject.ConsequenceTally{}
		}
		t.AddRow(cons.String(), fmt.Sprintf("%d", ct.Total),
			fmt.Sprintf("%d", ct.Detected), stats.Pct(safeDiv(ct.Detected, ct.Total)))
	}
	t.AddRow("long-latency (crossed VM entry)",
		fmt.Sprintf("%d", res.Total.LongLatency),
		fmt.Sprintf("%d", res.Total.LongLatencyDetected),
		stats.Pct(safeDiv(res.Total.LongLatencyDetected, res.Total.LongLatency)))
	return "Fig. 9 — detection coverage of faults by consequence\n" + t.String()
}

// Fig10Points are the CDF sample points (instructions).
var Fig10Points = []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}

// RenderFig10 formats the detection-latency CDF per technique.
func RenderFig10(res *inject.CampaignResult) string {
	t := stats.NewTable(append([]string{"technique", "n"}, func() []string {
		hdr := make([]string, len(Fig10Points))
		for i, x := range Fig10Points {
			hdr[i] = fmt.Sprintf("≤%.0f", x)
		}
		return hdr
	}()...)...)
	for _, tech := range campaignTechniques(res) {
		lats := res.Total.Latencies[tech]
		xs := make([]float64, len(lats))
		for i, l := range lats {
			xs[i] = float64(l)
		}
		cdf := stats.NewCDF(xs)
		row := []string{tech.String(), fmt.Sprintf("%d", len(lats))}
		for _, p := range cdf.Points(Fig10Points) {
			row = append(row, stats.Pct(p))
		}
		t.AddRow(row...)
	}
	return "Fig. 10 — CDF of detection latency (instructions between activation and detection)\n" + t.String()
}

// RenderSiteCoverage formats the per-fault-site-class detection-coverage
// figure: for every site class the campaign injected into, how many
// injections landed there, how many manifested, and the detected share.
// Site classes with no injections are omitted, so legacy register-only
// campaigns render the single "gpr" row (plus "ctl" for the RIP/RFLAGS
// share of the register draw).
func RenderSiteCoverage(res *inject.CampaignResult) string {
	t := stats.NewTable("site", "injections", "manifested", "detected", "coverage")
	for _, site := range inject.Sites() {
		st := res.Total.BySite[site]
		if st == nil || st.Injections == 0 {
			continue
		}
		t.AddRow(site.String(), fmt.Sprintf("%d", st.Injections),
			fmt.Sprintf("%d", st.Manifested), fmt.Sprintf("%d", st.Detected),
			stats.Pct(st.Coverage()))
	}
	return "Detection coverage by fault-site class\n" + t.String()
}

// RenderTableII formats the undetected-fault breakdown.
func RenderTableII(res *inject.CampaignResult) string {
	t := stats.NewTable("cause", "count", "share")
	total := res.Total.Undetected
	for _, cause := range inject.Causes() {
		if cause == inject.CauseNone {
			continue
		}
		n := res.Total.ByCause[cause]
		t.AddRow(cause.String(), fmt.Sprintf("%d", n), stats.Pct(safeDiv(n, total)))
	}
	return fmt.Sprintf("Table II — undetected faults (%d total)\n%s", total, t.String())
}

// ---------------------------------------------------------------------------
// Fig. 11: recovery overhead under false positives
// ---------------------------------------------------------------------------

// Fig11Result is the recovery-overhead study.
type Fig11Result struct {
	Estimates []recovery.Estimate
	Avg       float64
}

// Fig11 estimates the false-positive recovery overhead per benchmark from
// measured activation traces.
func Fig11(sc Scale, fpr float64) (*Fig11Result, error) {
	model := recovery.DefaultModel()
	if fpr > 0 {
		model.FalsePositiveRate = fpr
	}
	res := &Fig11Result{}
	var sum float64
	for _, bench := range workload.Names() {
		cfg := sim.Config{Benchmark: bench, Mode: workload.PV, Domains: 3,
			Seed: sc.Seed, Detection: core.Options{}}
		m, err := sim.NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		n := min(sc.RecoveryActivations, 20000)
		trace := make([]recovery.ActivationCost, 0, n)
		for i := 0; i < n; i++ {
			act, err := m.Step()
			if err != nil {
				return nil, err
			}
			trace = append(trace, recovery.ActivationCost{
				GuestCycles:   act.GuestCycles,
				HandlerCycles: float64(act.Outcome.Result.Steps),
			})
		}
		est := model.EstimateForTrace(bench, trace, sc.RecoveryReps, sc.Seed+99)
		res.Estimates = append(res.Estimates, est)
		sum += est.Overhead
	}
	res.Avg = sum / float64(len(res.Estimates))
	return res, nil
}

// Render formats the Fig. 11 table.
func (r *Fig11Result) Render() string {
	t := stats.NewTable("benchmark", "overhead", "min", "max", "fp/run")
	for _, e := range r.Estimates {
		t.AddRow(e.Benchmark,
			fmt.Sprintf("%.2f%%", 100*e.Overhead),
			fmt.Sprintf("%.2f%%", 100*e.Min),
			fmt.Sprintf("%.2f%%", 100*e.Max),
			fmt.Sprintf("%.1f", e.FalsePositives))
	}
	return fmt.Sprintf("Fig. 11 — recovery overhead with false positives (avg %.2f%%)\n%s",
		100*r.Avg, t.String())
}

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
