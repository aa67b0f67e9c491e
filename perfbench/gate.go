package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"

	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/workload"
)

// workloadsJSON records, per workload, why it was chosen, which end-to-end
// metric each layer metric should move, and the exact simulated counts
// and report digest at the default seed.
//
//go:embed workloads.json
var workloadsJSON []byte

// record is one workload's entry in workloads.json.
type record struct {
	Why    string      `json:"why"`
	Layers []layerLink `json:"layers"`
	// DefaultSeed pins the outcome of one repetition at defaultSeed.
	DefaultSeed pinned `json:"default_seed"`
}

// layerLink is one line of the interaction map: a per-layer metric and
// the end-to-end metrics it should move on this workload.
type layerLink struct {
	Metric string   `json:"metric"`
	Moves  []string `json:"moves"`
}

// pinned is what a repetition's deterministic output must be: the
// SHA-256 of its report bytes and the exact simulated counts.
type pinned struct {
	ReportSHA256     string    `json:"report_sha256"`
	Injections       int       `json:"injections"`
	Runs             runCounts `json:"runs"`
	RecoveryAttempts int       `json:"recovery_attempts"`
	FleetLeases      int64     `json:"fleet_leases"`
}

type runCounts struct {
	Dead      int `json:"dead"`
	Converged int `json:"converged"`
	Full      int `json:"full"`
}

func loadRecords() (map[string]record, error) {
	var recs map[string]record
	if err := json.Unmarshal(workloadsJSON, &recs); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return recs, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// pinnedOf extracts a repetition's deterministic output.
func pinnedOf(r *repResult) pinned {
	p := pinned{
		ReportSHA256: digest(r.report),
		Injections:   r.parsed.Injections,
		Runs: runCounts{Dead: r.parsed.Pruned.Dead, Converged: r.parsed.Pruned.Converged,
			Full: r.parsed.Pruned.Full},
		FleetLeases: r.fleet.Leases,
	}
	if r.parsed.Recovery != nil {
		p.RecoveryAttempts = r.parsed.Recovery.Attempts
	}
	return p
}

// gate collects correctness failures; any one fails the run.
type gate struct {
	problems []string
}

func (g *gate) failf(format string, args ...any) {
	g.problems = append(g.problems, fmt.Sprintf(format, args...))
}

func (g *gate) ok() bool { return len(g.problems) == 0 }

// checkRep holds one repetition to the gate: its report bytes equal the
// run's first report, its run provenance and per-site rows account for
// every injection, and at the default seed its digest and counts match
// the record.
func (g *gate) checkRep(w workloadSpec, label string, r, first *repResult, seed int64, rec record) {
	g.sameReport(label, r, first)
	rep := r.parsed
	if benches := len(workload.Names()); rep.Injections != w.injections*benches || len(rep.PerBenchmark) != benches {
		g.failf("%s: %d injections over %d benchmarks, want %d per benchmark over %d",
			label, rep.Injections, len(rep.PerBenchmark), w.injections, benches)
	}
	if p := rep.Pruned; p.Dead+p.Converged+p.Full != rep.Injections {
		g.failf("%s: dead %d + converged %d + full %d != %d injections",
			label, p.Dead, p.Converged, p.Full, rep.Injections)
	}
	sites := 0
	for _, s := range rep.PerSite {
		sites += s.Injections
	}
	if sites != rep.Injections {
		g.failf("%s: per-site injections sum to %d, want %d", label, sites, rep.Injections)
	}
	if seed != defaultSeed {
		return
	}
	if got := pinnedOf(r); got != rec.DefaultSeed {
		g.failf("%s: default-seed output %+v, recorded %+v", label, got, rec.DefaultSeed)
	}
}

// sameReport requires r's report bytes to equal first's (nil first: r is
// the first).
func (g *gate) sameReport(label string, r, first *repResult) {
	if first != nil && !bytes.Equal(r.report, first.report) {
		g.failf("%s: report differs from the run's first report (%s vs %s)",
			label, digest(r.report), digest(first.report))
	}
}

// auditPerKind is how many dead and how many converged plans the prune
// audit re-executes per benchmark.
const auditPerKind = 16

// pruneAudit re-executes a deterministic sample of pruned plans — up to
// auditPerKind dead and auditPerKind converged per benchmark, walked from
// a seed-derived offset — on a runner with pruning disabled, and requires
// each Outcome to be DeepEqual to the pruned one once Pruned is zeroed.
// It returns how many plans it audited.
func (w workloadSpec) pruneAudit(seed int64, model *ml.Tree) (int, error) {
	cfg, err := w.campaignConfig(seed, model)
	if err != nil {
		return 0, err
	}
	full := cfg
	full.DisablePrune = true
	audited := 0
	for bi, bench := range cfg.Benchmarks {
		br, err := inject.PrepareBenchmark(cfg, bi)
		if err != nil {
			return audited, err
		}
		ref, err := inject.PrepareBenchmark(full, bi)
		if err != nil {
			return audited, err
		}
		pruned, unpruned := br.Runner.NewWorker(), ref.Runner.NewWorker()
		left := map[inject.PruneKind]int{inject.PruneDead: auditPerKind, inject.PruneConverged: auditPerKind}
		n := len(br.Plans)
		offset := int(uint64(seed) % uint64(n))
		for k := 0; k < n && left[inject.PruneDead]+left[inject.PruneConverged] > 0; k++ {
			plan := br.Plans[(offset+k)%n]
			o, err := pruned.RunOne(plan)
			if err != nil {
				return audited, err
			}
			if left[o.Pruned] == 0 {
				continue
			}
			left[o.Pruned]--
			f, err := unpruned.RunOne(plan)
			if err != nil {
				return audited, err
			}
			kind := o.Pruned
			o.Pruned, f.Pruned = inject.PruneNone, inject.PruneNone
			if !reflect.DeepEqual(o, f) {
				return audited, fmt.Errorf("prune audit: %s plan %v (%s): pruned outcome %+v, full run %+v",
					bench, plan, kind, o, f)
			}
			audited++
		}
	}
	return audited, nil
}
