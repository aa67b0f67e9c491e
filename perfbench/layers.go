package main

import (
	"slices"
	"time"

	"xentry/internal/inject"
)

// selfLayers are the layers whose summed span self time the traced run
// reports. "bench" is the benchmark's own glue (repetition, benchmark and
// worker-loop spans).
var selfLayers = []string{"bench", "experiments", "inject", "ml", "server"}

// layerMetrics derives one traced repetition's per-layer metrics. rep is
// the traced repetition (served or in-process); cs carries the traced
// campaign's layer numbers — for a served workload those come from its
// replay, since the server's injections run out of the benchmark's
// reach. spans are every span recorded so far; run names rep's own.
func layerMetrics(w workloadSpec, rep *repResult, cs *campaignStats, spans []span, run string) map[string]float64 {
	replay := run + "/replay"
	total := func(runs []string, names ...string) float64 {
		var d time.Duration
		for _, s := range spans {
			if slices.Contains(runs, s.Run) && slices.Contains(names, s.Name) {
				d += s.dur()
			}
		}
		return d.Seconds()
	}
	campaign := []string{run, replay} // whichever ran tracedCampaign
	own := []string{run}

	m := map[string]float64{}
	m["inject.collect_s"] = total(campaign, "inject.CollectDataset")
	m["ml.train_s"] = total(campaign, "ml.Train", "ml.Evaluate")
	prepare := total(campaign, "inject.PrepareBenchmark")
	m["inject.prepare_s"] = prepare
	m["sim.golden_instr"] = float64(cs.goldenInstr)
	m["sim.prepare_ns_per_instr"] = ratio(prepare*1e9, float64(cs.goldenInstr))
	m["inject.pool_mib"] = float64(cs.poolBytes) / (1 << 20)

	var all, recovered []float64
	byKind := map[inject.PruneKind][]float64{}
	byTarget := map[string][]float64{}
	var busy float64
	for _, s := range cs.samples {
		all = append(all, s.us)
		byKind[s.pruned] = append(byKind[s.pruned], s.us)
		byTarget[s.target] = append(byTarget[s.target], s.us)
		if s.recovered {
			recovered = append(recovered, s.us)
		}
		busy += s.us / 1e6
	}
	d := summarize(all)
	m["inject.run_us.p50"] = d.P50
	m["inject.run_us.p99"] = d.P99
	m["inject.run_us.tail"] = d.Tail
	m["inject.run_us.tail_pct"] = d.TailPct
	m["inject.run_us.samples"] = float64(d.N)
	m["inject.run_us.p50.dead"] = summarize(byKind[inject.PruneDead]).P50
	m["inject.run_us.p50.converged"] = summarize(byKind[inject.PruneConverged]).P50
	m["inject.run_us.p50.full"] = summarize(byKind[inject.PruneNone]).P50
	for _, t := range []string{"gpr", "dtlb", "apic", "pmu", "pgtable"} {
		m["inject.run_us.p50."+t] = summarize(byTarget[t]).P50
	}

	r := rep.parsed
	m["inject.runs.dead"] = float64(r.Pruned.Dead)
	m["inject.runs.converged"] = float64(r.Pruned.Converged)
	m["inject.runs.full"] = float64(r.Pruned.Full)
	m["inject.pruned_share"] = ratio(float64(r.Pruned.Dead+r.Pruned.Converged), float64(r.Injections))
	// Σ RunOne time over the capacity of the repetition's injection phase
	// (the same wall − setup interval inj_per_s divides by).
	m["inject.busy_share"] = ratio(busy, float64(workers())*(rep.wall-rep.setup).Seconds())
	if r.Recovery != nil {
		m["recovery.attempts"] = float64(r.Recovery.Attempts)
		m["recovery.full_share"] = r.Recovery.SuccessRate
	}
	m["recovery.run_us.p50"] = summarize(recovered).P50

	sd := summarize(append([]float64(nil), rep.shardMs...))
	m["server.shard_ms.p50"] = sd.P50
	m["server.shard_ms.p99"] = sd.P99
	m["server.shard_ms.tail"] = sd.Tail
	m["server.shard_ms.tail_pct"] = sd.TailPct
	m["server.shard_ms.samples"] = float64(sd.N)
	m["server.retries"] = float64(rep.retries)
	m["server.worker_deaths"] = float64(rep.workerDeaths)
	m["experiments.report_s"] = total(own, "server.Client.Report",
		"experiments.NewCampaignReport", "experiments.CampaignReport.EncodeJSON")
	if w.served() {
		m["store.wal_bytes_per_record"] = ratio(float64(rep.walBytes), float64(r.Injections))
	}
	m["fleet.records_per_batch"] = ratio(float64(rep.fleet.Records), float64(rep.fleet.Batches))
	m["fleet.slowdowns"] = float64(rep.fleet.Slowdowns)
	m["fleet.requeues"] = float64(rep.fleet.Requeues)
	m["fleet.damaged"] = float64(rep.fleet.Damaged)
	m["fleet.leases"] = float64(rep.fleet.Leases)
	m["fleet.worker_setup_s"] = medianDur(rep.workerSetup)
	m["fail_ratio"] = ratio(float64(rep.failed), float64(r.Injections))

	self := layerSelf(spans, run)
	for _, l := range selfLayers {
		m["self_s."+l] = self[l].Seconds()
	}
	return m
}
