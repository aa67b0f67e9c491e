package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xentry/internal/core"
	"xentry/internal/experiments"
	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/server"
	"xentry/internal/workload"
)

// defaultSeed is the paper campaign's seed (the CLI default); its report
// digests are recorded in workloads.json.
const defaultSeed = 20140901

// workloadSpec is one benchmark workload: a full campaign — six
// benchmarks, PV mode, 160 activations, DefaultScale training — shaped by
// the fields below. Every repetition runs the whole campaign from
// training to verified report bytes.
type workloadSpec struct {
	name string
	// injections is the per-benchmark injection count of one repetition.
	injections int
	// execution is "" for an in-process experiments campaign, or the
	// campaign server's data plane ("pool" or "fleet"), driven over HTTP.
	execution string
	vcpus     int
	targets   []string
	recovery  string
	noPrune   bool
	// audit marks the workloads whose pruned runs the shadow audit checks.
	audit bool
}

var workloads = []workloadSpec{
	{name: "paper-gpr", injections: 6000, audit: true},
	{name: "full-exec", injections: 1500, noPrune: true},
	{name: "smp-recover-serve", injections: 600, execution: "pool", vcpus: 4,
		targets: []string{"gpr", "dtlb", "apic", "pmu", "pgtable"}, recovery: "policy"},
	{name: "fleet-dead", injections: 10000, execution: "fleet", vcpus: 4,
		targets: []string{"apic", "pgtable"}, audit: true},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func (w workloadSpec) served() bool { return w.execution != "" }

// workers is the pool size (in-process workers, server pool workers, or
// fleet sessions): one per host CPU.
func workers() int { return runtime.GOMAXPROCS(0) }

// trainScale is the DefaultScale training every workload performs,
// seeded by the run's seed.
func trainScale(seed int64) experiments.Scale {
	sc := experiments.DefaultScale()
	sc.Seed = seed
	sc.Workers = workers()
	return sc
}

// scale is the in-process workloads' experiments configuration.
func (w workloadSpec) scale(seed int64) experiments.Scale {
	sc := trainScale(seed)
	sc.CampaignInjections = w.injections
	sc.DisablePrune = w.noPrune
	sc.VCPUs = w.vcpus
	sc.Targets = w.targets
	sc.Recovery = w.recovery
	return sc
}

// spec is the served workloads' campaign submission.
func (w workloadSpec) spec(seed int64) server.CampaignSpec {
	sp := server.CampaignSpec{
		ID:                     "perfbench",
		InjectionsPerBenchmark: w.injections,
		Seed:                   seed,
		TrainInjections:        experiments.DefaultScale().TrainInjections,
		VCPUs:                  w.vcpus,
		Targets:                w.targets,
		Recovery:               w.recovery,
		Execution:              w.execution,
	}
	if w.noPrune {
		sp.Prune = "off"
	}
	return sp
}

// campaignConfig is the exact inject configuration the workload's
// campaign runs with model installed: experiments.CampaignConfigFor for
// the in-process workloads, and for the served ones the configuration
// the server derives from spec(seed). The traced run and the reference
// runs execute it directly; the report gate proves it matches.
func (w workloadSpec) campaignConfig(seed int64, model *ml.Tree) (inject.CampaignConfig, error) {
	if !w.served() {
		cfg, err := experiments.CampaignConfigFor(w.scale(seed), model, 0)
		return cfg.Normalized(), err
	}
	cfg := inject.CampaignConfig{
		Benchmarks:             workload.Names(),
		Mode:                   workload.PV,
		InjectionsPerBenchmark: w.injections,
		Activations:            experiments.DefaultScale().Activations,
		Seed:                   seed,
		Workers:                workers(),
		Detection:              core.FullDetection(),
		Model:                  model,
		DisablePrune:           w.noPrune,
		Recovery:               w.recovery,
		VCPUs:                  w.vcpus,
		Targets:                w.targets,
	}
	return cfg.Normalized(), nil
}

// repResult is one campaign repetition, timed from its start.
type repResult struct {
	// setup runs until the first injection outcome is recorded; wall
	// until the verified report bytes are in hand.
	setup, wall time.Duration
	report      []byte
	parsed      *experiments.CampaignReport
	// failed counts failed operations: shard retries, worker deaths,
	// damaged and dropped records (RunOne errors fail the repetition).
	failed int64
	// model is the transition model the repetition trained, when the
	// benchmark trained it itself.
	model *ml.Tree

	// Served repetitions only.
	shardMs      []float64
	retries      int64
	workerDeaths int64
	walBytes     int64
	fleet        server.FleetStats
	workerSetup  []time.Duration
}

func (r *repResult) injections() int { return r.parsed.Injections }

// repOptions are fault hooks for the benchmark's own tests.
type repOptions struct {
	// workerAddr, when set, maps the fleet address each worker dials.
	workerAddr func(string) string
}

// runRep runs one untraced repetition.
func (w workloadSpec) runRep(seed int64, workDir string, opts repOptions) (*repResult, error) {
	if w.served() {
		return w.runServed(nil, "", seed, workDir, opts)
	}
	return w.runInProcess(seed)
}

// tracedRep runs one traced repetition. In-process workloads run
// tracedCampaign. Served workloads run the served campaign with spans
// around the client, server and worker calls, then replay the same
// configuration through tracedCampaign, untimed, for the layer numbers
// the server keeps to itself; the replay's report must equal the served
// one.
func (w workloadSpec) tracedRep(tr *tracer, run string, seed int64, workDir string) (rep, replay *repResult, cs *campaignStats, err error) {
	if !w.served() {
		rep, cs, err = w.tracedCampaign(tr, run, seed)
		return rep, nil, cs, err
	}
	if rep, err = w.runServed(tr, run, seed, workDir, repOptions{}); err != nil {
		return nil, nil, nil, err
	}
	replay, cs, err = w.tracedCampaign(tr, run+"/replay", seed)
	return rep, replay, cs, err
}

// runInProcess is the CLI campaign path: experiments.Train, then
// experiments.CampaignSink with no sink, then the JSON report.
func (w workloadSpec) runInProcess(seed int64) (*repResult, error) {
	start := time.Now()
	sc := w.scale(seed)
	train, err := experiments.Train(sc)
	if err != nil {
		return nil, err
	}
	var first atomic.Int64
	res, err := experiments.CampaignSink(sc, train.Best(), 0, func(done, total int) {
		if first.Load() == 0 {
			first.CompareAndSwap(0, int64(time.Since(start)))
		}
	}, nil)
	if err != nil {
		return nil, err
	}
	rep := experiments.NewCampaignReport(res, workload.Names())
	data, err := rep.EncodeJSON()
	if err != nil {
		return nil, err
	}
	return &repResult{setup: time.Duration(first.Load()), wall: time.Since(start),
		report: data, parsed: rep, model: train.Best()}, nil
}

// runServed runs the campaign through an in-process campaign server with
// a durable store under workDir, driven by server.Client over one
// loopback HTTP connection: Submit, StreamEvents, Report. Fleet workloads
// add a fleet listener and one server.RunWorker session per CPU.
func (w workloadSpec) runServed(tr *tracer, run string, seed int64, workDir string, opts repOptions) (*repResult, error) {
	start := time.Now()
	root := tr.start(run, "bench.rep", 0)
	defer root.end()
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var fleet *server.Fleet
	if w.execution == "fleet" {
		sp := tr.start(run, "server.NewFleet", root.id())
		fleet, err = server.NewFleet("127.0.0.1:0")
		sp.end()
		if err != nil {
			return nil, err
		}
		defer fleet.Close()
	}
	sp := tr.start(run, "server.NewServer", root.id())
	srv, err := server.NewServer(server.Config{DataDir: dir, Workers: workers(), Fleet: fleet})
	sp.end()
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	transport := &http.Transport{MaxConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &server.Client{Base: "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: transport}}

	sp = tr.start(run, "server.Client.Submit", root.id())
	st, err := client.Submit(w.spec(seed))
	sp.end()
	if err != nil {
		return nil, err
	}

	res := &repResult{}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	var workerErrs []error
	if fleet != nil {
		addr := fleet.Addr()
		if opts.workerAddr != nil {
			addr = opts.workerAddr(addr)
		}
		n := workers()
		res.workerSetup = make([]time.Duration, n)
		workerErrs = make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ws := tr.start(run, "server.RunWorker", root.id())
				defer ws.end()
				began := time.Now()
				workerErrs[i] = server.RunWorker(ctx, server.WorkerOptions{
					Coordinator: addr,
					Campaign:    st.ID,
					Name:        fmt.Sprintf("perfbench-%d", i),
					// A worker that dials before the campaign registers
					// is refused and redials; keep that from adding the
					// default half-second sleep to setup.
					RetryInterval: 20 * time.Millisecond,
					Logf: func(format string, args ...any) {
						// The first benchmark preparation follows the
						// first lease.
						if res.workerSetup[i] == 0 && strings.HasPrefix(format, "worker: preparing benchmark") {
							res.workerSetup[i] = time.Since(began)
						}
					},
				})
			}(i)
		}
	}
	stopWorkers := func() error {
		// Workers return once the coordinator reports the campaign done;
		// bound the wait, then cut them loose.
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cancel()
			<-done
		}
		return errors.Join(workerErrs...)
	}

	type shardKey struct {
		bench          string
		shard, attempt int
	}
	var firstOutcome time.Duration
	shardStart := map[shardKey]time.Time{}
	sp = tr.start(run, "server.Client.StreamEvents", root.id())
	err = client.StreamEvents(ctx, st.ID, func(ev server.Event) {
		key := shardKey{ev.Bench, ev.Shard, ev.Attempt}
		switch ev.Type {
		case server.EventOutcome:
			if firstOutcome == 0 {
				firstOutcome = time.Since(start)
			}
		case server.EventShardStart:
			shardStart[key] = time.Now()
		case server.EventShardDone:
			if t0, ok := shardStart[key]; ok {
				res.shardMs = append(res.shardMs, float64(time.Since(t0))/float64(time.Millisecond))
			}
		}
	})
	sp.end()
	if err != nil {
		return nil, err
	}
	// The engine's campaign_done event can reach the client before the
	// server has stored the report (Server.runCampaign settles the state
	// only after Engine.Run returns), so wait for the state to settle.
	sp = tr.start(run, "server.Client.Status", root.id())
	err = waitSettled(client, st.ID)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start(run, "server.Client.Report", root.id())
	rep, err := client.Report(st.ID)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start(run, "experiments.CampaignReport.EncodeJSON", root.id())
	data, err := rep.EncodeJSON()
	sp.end()
	if err != nil {
		return nil, err
	}
	res.wall = time.Since(start)
	res.setup = firstOutcome
	res.report, res.parsed = data, rep
	if firstOutcome == 0 {
		return nil, fmt.Errorf("%s: no outcome event reached the client", w.name)
	}

	// Untimed: counters, worker shutdown, WAL size on disk.
	counters, err := scrapeMetrics(client)
	if err != nil {
		return nil, err
	}
	if err := stopWorkers(); err != nil {
		return nil, fmt.Errorf("%s: fleet worker: %w", w.name, err)
	}
	res.retries = counters["xentry_shard_retries_total"]
	res.workerDeaths = counters["xentry_worker_deaths_total"]
	res.failed = res.retries + res.workerDeaths + counters["xentry_wal_records_dropped_total"]
	if fleet != nil {
		res.fleet = fleet.Stats()
		res.failed += res.fleet.Damaged
	}
	segs, err := filepath.Glob(filepath.Join(dir, st.ID, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			return nil, err
		}
		res.walBytes += fi.Size()
	}
	return res, nil
}

// waitSettled polls the campaign's status until it leaves "running".
func waitSettled(c *server.Client, id string) error {
	for {
		st, err := c.Status(id)
		if err != nil {
			return err
		}
		if st.State != "running" {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// scrapeMetrics reads the server's Prometheus-style counters (unlabelled
// lines only).
func scrapeMetrics(c *server.Client) (map[string]int64, error) {
	resp, err := c.HTTPClient.Get(strings.TrimRight(c.Base, "/") + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s", resp.Status)
	}
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = n
		}
	}
	return out, sc.Err()
}

// trainModel is the deterministic DefaultScale training every campaign
// path performs (experiments.Train), for the untimed reference runs.
func trainModel(seed int64) (*ml.Tree, error) {
	tr, err := experiments.Train(trainScale(seed))
	if err != nil {
		return nil, err
	}
	return tr.Best(), nil
}

// referenceReport runs the workload's campaign configuration through
// inject.RunCampaign and returns its report bytes: the oracle a served
// workload's report must equal.
func (w workloadSpec) referenceReport(seed int64, model *ml.Tree) ([]byte, error) {
	cfg, err := w.campaignConfig(seed, model)
	if err != nil {
		return nil, err
	}
	res, err := inject.RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return experiments.NewCampaignReport(res, workload.Names()).EncodeJSON()
}
