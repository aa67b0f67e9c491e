// Command perfbench is the repository's same-host campaign benchmark. It
// runs one named workload — a complete fault-injection campaign, from
// model training to verified CampaignReport bytes — repeatedly for a
// fixed host-time budget, holds every report to the correctness gate,
// runs the prune shadow audit, and prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, as medians over the
// repetitions. With -trace 1 it alternates untraced and traced
// repetitions and reports the per-layer metrics the traced ones derive
// from their spans, plus the tracing overhead; the spans are written to
// <work>/spans-<workload>.csv when the run ends.
//
// Build and run it through run.py, from the repository root:
//
//	python3 perfbench/run.py --workload paper-gpr --seed 20140901 --seconds 10 --trace 0
//
// workloads.json says why each workload exists, which end-to-end metric
// each layer metric should move on it, and pins its default-seed report
// digest and exact simulated counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xentry/internal/ml"
)

// A run repeats the campaign while the next repetition (or untraced +
// traced pair), judged by the last one, still fits the budget — but at
// least minReps repetitions or minPairs pairs, however short the budget.
const (
	minReps  = 3
	minPairs = 2
)

// runLimit aborts a run that overstays; the driver of a run allows 180 s.
const runLimit = 170 * time.Second

type metricDef struct{ name, unit string }

// endToEnd are the metrics a campaign's user sees, reported with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"inj_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the traced run's metrics, reported with -trace 1. Every
// workload reports all of them; one that does not apply reads 0.
var perLayer = []metricDef{
	{"inject.collect_s", "s"},
	{"ml.train_s", "s"},
	{"inject.prepare_s", "s"},
	{"sim.golden_instr", "count"},
	{"sim.prepare_ns_per_instr", "ns/instr"},
	{"inject.pool_mib", "MiB"},
	{"inject.run_us.p50", "us"},
	{"inject.run_us.p99", "us"},
	{"inject.run_us.tail", "us"},
	{"inject.run_us.tail_pct", "%"},
	{"inject.run_us.samples", "count"},
	{"inject.run_us.p50.dead", "us"},
	{"inject.run_us.p50.converged", "us"},
	{"inject.run_us.p50.full", "us"},
	{"inject.run_us.p50.gpr", "us"},
	{"inject.run_us.p50.dtlb", "us"},
	{"inject.run_us.p50.apic", "us"},
	{"inject.run_us.p50.pmu", "us"},
	{"inject.run_us.p50.pgtable", "us"},
	{"inject.runs.dead", "count"},
	{"inject.runs.converged", "count"},
	{"inject.runs.full", "count"},
	{"inject.pruned_share", "ratio"},
	{"inject.busy_share", "ratio"},
	{"recovery.attempts", "count"},
	{"recovery.run_us.p50", "us"},
	{"recovery.full_share", "ratio"},
	{"server.shard_ms.p50", "ms"},
	{"server.shard_ms.p99", "ms"},
	{"server.shard_ms.tail", "ms"},
	{"server.shard_ms.tail_pct", "%"},
	{"server.shard_ms.samples", "count"},
	{"server.retries", "count"},
	{"server.worker_deaths", "count"},
	{"experiments.report_s", "s"},
	{"store.wal_bytes_per_record", "B"},
	{"fleet.records_per_batch", "count"},
	{"fleet.slowdowns", "count"},
	{"fleet.requeues", "count"},
	{"fleet.damaged", "count"},
	{"fleet.leases", "count"},
	{"fleet.worker_setup_s", "s"},
	{"fail_ratio", "ratio"},
	{"self_s.bench", "s"},
	{"self_s.experiments", "s"},
	{"self_s.inject", "s"},
	{"self_s.ml", "s"},
	{"self_s.server", "s"},
	{"tracing.overhead_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (see workloads.json)")
	seed := flag.Int64("seed", defaultSeed, "input seed; 0 means the default seed")
	seconds := flag.Float64("seconds", 10, "host seconds of repetitions to measure")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"),
		"directory for campaign stores and span files")
	pin := flag.Bool("record", false, "print the workload's default-seed record and exit")
	flag.Parse()
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	os.Exit(run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *work, *pin))
}

func run(name string, seed int64, budget time.Duration, traced bool, work string, pin bool) int {
	w, ok := lookupWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	recs, err := loadRecords()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec, ok := recs[w.name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: workload %q has no record in workloads.json\n", w.name)
		return 1
	}
	if seed == 0 {
		seed = defaultSeed
	}
	workDir, err := filepath.Abs(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if pin {
		return printRecord(w, workDir)
	}
	var res result
	g := &gate{}
	if traced {
		res, err = runTraced(w, seed, budget, workDir, rec, g)
	} else {
		res, err = runUntraced(w, seed, budget, workDir, rec, g)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range g.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	res.Correct = g.ok()
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// repSeed is repetition k's seed: the run's own for k = 0, then a fixed
// sequence derived from it. A campaign's cost depends on its seed — the
// workload streams it replays differ in length and mix — so an untraced
// run measures the workload over a family of seeds, not one seed's
// particular streams.
func repSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// runUntraced measures the end-to-end metrics: repetitions over
// repSeed(seed, 0), repSeed(seed, 1), ... until the budget is spent,
// then the untimed checks on the run's own seed.
func runUntraced(w workloadSpec, seed int64, budget time.Duration, workDir string, rec record, g *gate) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	start := time.Now()
	var reps []*repResult
	var peaks []float64 // per-repetition peak resident sets, when measurable
	var last time.Duration
	for len(reps) < minReps || time.Since(start)+last <= budget {
		began := time.Now()
		perRep := resetPeakRSS()
		k := len(reps)
		r, err := w.runRep(repSeed(seed, k), workDir, repOptions{})
		if err != nil {
			return res, err
		}
		g.checkRep(w, fmt.Sprintf("rep %d", k), r, nil, repSeed(seed, k), rec)
		fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: setup %.3fs wall %.3fs %d injections\n",
			w.name, k, r.setup.Seconds(), r.wall.Seconds(), r.injections())
		if perRep {
			peaks = append(peaks, peakRSSMiB())
		}
		reps = append(reps, r)
		res.Attempted += int64(r.injections())
		res.Failed += r.failed
		last = time.Since(began)
	}
	var setups, walls, rates []float64
	for _, r := range reps {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(r.injections())/(r.wall-r.setup).Seconds())
	}
	vals := map[string]float64{
		"setup_s":      median(setups),
		"wall_s":       median(walls),
		"inj_per_s":    median(rates),
		"peak_rss_mib": peakRSSMiB(),
	}
	if len(peaks) == len(reps) {
		vals["peak_rss_mib"] = median(peaks)
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}

	// Untimed: the run's own seed again, through a second path — a fresh
	// in-process campaign, or inject.RunCampaign for a served workload —
	// must give the same report bytes; then the prune audit.
	var again *repResult
	var err error
	if w.served() {
		again = &repResult{}
		if again.model, err = trainModel(seed); err == nil {
			again.report, err = w.referenceReport(seed, again.model)
		}
	} else {
		again, err = w.runInProcess(seed)
	}
	if err != nil {
		return res, err
	}
	g.sameReport("second run of the run's seed", again, reps[0])
	audit(w, seed, again.model, g)
	return res, nil
}

// runTraced measures the per-layer metrics: untraced and traced
// repetitions alternate until the budget is spent.
func runTraced(w workloadSpec, seed int64, budget time.Duration, workDir string, rec record, g *gate) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	tr := newTracer()
	start := time.Now()
	var plain, traced []*repResult
	var layers []map[string]float64
	var last *campaignStats
	var pair time.Duration
	for len(traced) < minPairs || time.Since(start)+pair <= budget {
		began := time.Now()
		i := len(traced)
		u, err := w.runRep(seed, workDir, repOptions{})
		if err != nil {
			return res, err
		}
		g.checkRep(w, fmt.Sprintf("untraced rep %d", i), u, first(plain), seed, rec)
		plain = append(plain, u)
		run := fmt.Sprintf("%s/%d/rep%d", w.name, seed, i)
		t, replay, cs, err := w.tracedRep(tr, run, seed, workDir)
		if err != nil {
			return res, err
		}
		g.checkRep(w, fmt.Sprintf("traced rep %d", i), t, plain[0], seed, rec)
		if replay != nil {
			g.sameReport(fmt.Sprintf("traced rep %d replay", i), replay, plain[0])
		}
		traced = append(traced, t)
		layers = append(layers, layerMetrics(w, t, cs, tr.snapshot(), run))
		last = cs
		for _, r := range []*repResult{u, t} {
			res.Attempted += int64(r.injections())
			res.Failed += r.failed
		}
		pair = time.Since(began)
	}
	for _, m := range perLayer {
		var xs []float64
		for _, l := range layers {
			xs = append(xs, l[m.name])
		}
		res.Metrics[m.name] = metricValue{median(xs), m.unit}
	}
	overhead := medianWall(traced) - medianWall(plain)
	res.Metrics["tracing.overhead_s"] = metricValue{overhead, "s"}
	if err := writeSpans(filepath.Join(workDir, "spans-"+w.name+".csv"), tr.snapshot()); err != nil {
		return res, err
	}
	audit(w, seed, last.model, g)
	return res, nil
}

// audit runs the prune shadow audit where it applies; a pruning workload
// that offers nothing to audit fails it.
func audit(w workloadSpec, seed int64, model *ml.Tree, g *gate) {
	if !w.audit {
		return
	}
	if n, err := w.pruneAudit(seed, model); err != nil {
		g.failf("%v", err)
	} else if n == 0 {
		g.failf("prune audit found no pruned plan to check")
	}
}

func first(reps []*repResult) *repResult {
	if len(reps) == 0 {
		return nil
	}
	return reps[0]
}

func medianWall(reps []*repResult) float64 {
	ds := make([]time.Duration, len(reps))
	for i, r := range reps {
		ds[i] = r.wall
	}
	return medianDur(ds)
}

// resetPeakRSS returns freed memory to the kernel, so a repetition starts
// from its live heap as a fresh process would, and restarts the kernel's
// peak-resident-set count (VmHWM) there, so peakRSSMiB measures one
// repetition. It reports whether the kernel allows the restart.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB is the peak resident set since the last resetPeakRSS, or
// since the process started.
func peakRSSMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if n, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(kb), " kB"), 64); err == nil {
					return n / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// printRecord runs one repetition at the default seed and prints its
// pinned output in workloads.json's form. A served workload's report must
// first equal inject.RunCampaign's for the same configuration.
func printRecord(w workloadSpec, workDir string) int {
	r, err := w.runRep(defaultSeed, workDir, repOptions{})
	if err == nil && w.served() {
		var model *ml.Tree
		if model, err = trainModel(defaultSeed); err == nil {
			var ref []byte
			if ref, err = w.referenceReport(defaultSeed, model); err == nil && digest(ref) != digest(r.report) {
				err = fmt.Errorf("served report %s differs from inject.RunCampaign's %s", digest(r.report), digest(ref))
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out, _ := json.MarshalIndent(pinnedOf(r), "", "  ")
	fmt.Println(string(out))
	return 0
}
