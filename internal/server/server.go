package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xentry/internal/core"
	"xentry/internal/detect"
	"xentry/internal/experiments"
	"xentry/internal/hv"
	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/recovery"
	"xentry/internal/store"
	"xentry/internal/workload"
)

// CampaignSpec is the JSON body of POST /campaigns: everything needed to
// reproduce the campaign deterministically. Submitting the same spec (same
// ID included) against a data directory that already holds part of the
// campaign resumes it — stored plan indices are never re-executed. A
// resubmission may change where and how shards run (execution,
// shard_size, pool_workers, checkpoint_every); changing anything that
// moves plans or outcomes is a 409.
type CampaignSpec struct {
	// ID names the campaign (and its store directory). Optional: the
	// server generates one. Client-chosen IDs make resume-after-restart
	// explicit.
	ID string `json:"id,omitempty"`
	// Benchmarks defaults to all six.
	Benchmarks             []string `json:"benchmarks,omitempty"`
	InjectionsPerBenchmark int      `json:"injections_per_benchmark"`
	Activations            int      `json:"activations,omitempty"`
	Seed                   int64    `json:"seed,omitempty"`
	// CheckpointEvery is the campaign engine's golden-checkpoint interval
	// K (0 = default, negative disables).
	CheckpointEvery int  `json:"checkpoint_every,omitempty"`
	Recover         bool `json:"recover,omitempty"`
	// TrainInjections > 0 has the coordinator train the VM-transition
	// model first (same deterministic training a local run performs), once
	// per campaign run; 0 runs without one.
	TrainInjections int `json:"train_injections,omitempty"`
	// ShardSize and PoolWorkers (the number of in-process worker
	// sessions) override the server's defaults for this campaign.
	ShardSize   int `json:"shard_size,omitempty"`
	PoolWorkers int `json:"pool_workers,omitempty"`
	// Detectors names plugin detector factories (detect.RegisterFactory)
	// to run behind the built-in pipeline on every campaign machine. Their
	// verdicts land in the report, the WAL, and /metrics under their
	// registered technique names.
	Detectors []string `json:"detectors,omitempty"`
	// Prune is the convergence-pruning switch: "" or "on" (the default)
	// prunes, "off" forces every run to its full activation budget (the
	// differential baseline). Anything else is a 400.
	Prune string `json:"prune,omitempty"`
	// Recovery names the recovery-engine strategy applied to detections
	// ("off"/"none"/"" = no engine, "microreboot", "restore", "policy").
	// An unknown name is a 400. Mutually exclusive with Recover.
	Recovery string `json:"recovery,omitempty"`
	// Execution picks where shards run: "" or "pool" leases them to
	// in-process worker sessions, "fleet" to remote xentry-worker
	// processes (requires a server started with a fleet listener). Both
	// speak the binary shard protocol to the same lease scheduler.
	// Anything else is a 400. The JSON API stays the control plane either
	// way.
	Execution string `json:"execution,omitempty"`
	// VCPUs is the number of logical CPUs per simulated machine (0 or 1 =
	// the seed's single-CPU machine; out-of-range values are a 400).
	VCPUs int `json:"vcpus,omitempty"`
	// Targets names the fault-site target classes plans are drawn from
	// (see inject.TargetNames; empty = "gpr"). An unknown name is a 400,
	// matching the detectors contract; "apic" needs vcpus >= 2.
	Targets []string `json:"targets,omitempty"`
}

// withDefaults fills the deterministic defaults a local xentry-campaign
// run would use.
func (sp CampaignSpec) withDefaults() CampaignSpec {
	if len(sp.Benchmarks) == 0 {
		sp.Benchmarks = workload.Names()
	}
	if sp.Activations == 0 {
		sp.Activations = 160
	}
	if sp.Seed == 0 {
		sp.Seed = 20140901
	}
	return sp
}

// campaignConfig builds the engine-facing config (model installed later).
// It fails on detector names with no registered factory; handleCreate
// validates those up front so submissions get a 400, not a failed campaign.
func (sp CampaignSpec) campaignConfig() (inject.CampaignConfig, error) {
	detectors, err := detect.Factories(sp.Detectors)
	if err != nil {
		return inject.CampaignConfig{}, fmt.Errorf("server: %w", err)
	}
	return inject.CampaignConfig{
		Benchmarks:             sp.Benchmarks,
		Mode:                   workload.PV,
		InjectionsPerBenchmark: sp.InjectionsPerBenchmark,
		Activations:            sp.Activations,
		Seed:                   sp.Seed,
		Detection:              core.FullDetection(),
		Recover:                sp.Recover,
		CheckpointEvery:        sp.CheckpointEvery,
		Detectors:              detectors,
		DisablePrune:           sp.Prune == "off",
		Recovery:               sp.Recovery,
		VCPUs:                  sp.VCPUs,
		Targets:                sp.Targets,
	}, nil
}

// outcomeKey is the part of a spec that fixes a campaign's plans and
// outcomes, with equivalent spellings of each default made equal. It
// leaves out where and how shards run (execution, shard_size,
// pool_workers) and the checkpoint interval, which results are
// bit-identical across.
func (sp CampaignSpec) outcomeKey() CampaignSpec {
	sp = sp.withDefaults()
	sp.Execution, sp.ShardSize, sp.PoolWorkers, sp.CheckpointEvery = "", 0, 0, 0
	if sp.Prune == "on" {
		sp.Prune = ""
	}
	switch sp.Recovery {
	case "off", "none":
		sp.Recovery = ""
	}
	if sp.VCPUs == 1 {
		sp.VCPUs = 0
	}
	if sp.TrainInjections < 0 {
		sp.TrainInjections = 0
	}
	sp.Targets = inject.NormalizeTargets(sp.Targets)
	return sp
}

// errSpecConflict marks a resubmission whose spec would change the plans
// or outcomes of the campaign already stored under its ID.
var errSpecConflict = errors.New("spec conflicts with the stored campaign")

// checkResume refuses to resume a stored campaign (its meta's Extra
// holds the spec it was submitted with) under a spec whose outcomeKey
// differs. A store without a readable spec is left to store.Open's own
// identity check.
func (sp CampaignSpec) checkResume(storedSpec json.RawMessage) error {
	var stored CampaignSpec
	if len(storedSpec) == 0 || json.Unmarshal(storedSpec, &stored) != nil {
		return nil
	}
	have, want := stored.outcomeKey(), sp.outcomeKey()
	if !reflect.DeepEqual(have, want) {
		h, _ := json.Marshal(have)
		w, _ := json.Marshal(want)
		return fmt.Errorf("%w %s: stored %s, submitted %s", errSpecConflict, sp.ID, h, w)
	}
	return nil
}

// model trains the VM-transition model the spec asks for — the same
// deterministic training a local run performs — or returns nil when
// TrainInjections is 0. Only the coordinator trains: in-process sessions
// share its config, fleet workers receive the model's canonical bytes in
// Welcome, and the store pins their hash.
func (sp CampaignSpec) model() (*ml.Tree, error) {
	if sp.TrainInjections <= 0 {
		return nil, nil
	}
	sc := experiments.DefaultScale()
	sc.Seed = sp.Seed
	sc.Activations = sp.Activations
	sc.TrainInjections = sp.TrainInjections
	sc.TestInjections = sp.TrainInjections / 2
	train, err := experiments.Train(sc)
	if err != nil {
		return nil, fmt.Errorf("server: training: %w", err)
	}
	return train.Best(), nil
}

// CampaignStatus is the JSON body of GET /campaigns/{id}.
type CampaignStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // "running" | "done" | "failed"
	Error string `json:"error,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	// PerBenchmark maps benchmark name to stored outcome count.
	PerBenchmark map[string]int `json:"per_benchmark"`
	// Dropped is the store's corrupt-record drop count (see store.Dropped).
	Dropped        int       `json:"dropped"`
	StartedAt      time.Time `json:"started_at"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	RatePerSecond  float64   `json:"rate_per_second"`
	// ModelSHA256 is the hex SHA-256 of the transition model's canonical
	// encoding, as pinned in the campaign store (empty for a campaign
	// without a model, or before a running campaign has trained it).
	ModelSHA256 string `json:"model_sha256,omitempty"`
	// Build identifies the serving binary (see buildInfo).
	Build string `json:"build,omitempty"`
}

// buildInfo describes the running binary: the main module version, plus
// the VCS revision and dirty flag when the build recorded them.
var buildInfo = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	b := bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision", "vcs.modified":
			b += " " + s.Key + "=" + s.Value
		}
	}
	return b
})

// Config tunes the campaign server.
type Config struct {
	// DataDir is the root under which each campaign gets its store
	// directory. Required.
	DataDir string
	// Defaults for specs that do not override them.
	Workers      int
	ShardSize    int
	MaxAttempts  int
	ShardTimeout time.Duration
	// Fleet, when set, lets campaigns with Execution "fleet" run over the
	// remote worker data plane. The server does not own the fleet; the
	// caller (cmd/xentry-serve) creates and closes it.
	Fleet *Fleet
}

// Server is the HTTP coordinator: it owns the campaign registry, one
// durable store and one sharded engine per campaign, and the event
// streams.
type Server struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string
	seq       int

	// metrics, exposed at /metrics.
	outcomesRecorded atomic.Int64
	shardRetries     atomic.Int64
	workerDeaths     atomic.Int64
	campaignsDone    atomic.Int64
	campaignsFailed  atomic.Int64
	// prunedDead/prunedConverged count outcome events by run provenance,
	// exposed as xentry_pruned_total{reason="..."} so operators can see
	// the convergence-pruning hit rate of a live campaign.
	prunedDead      atomic.Int64
	prunedConverged atomic.Int64

	// Labelled counter families, each keyed by its label values (the
	// second one empty for single-label families) and guarded by its own
	// mutex; see bump and writeFamily.
	//
	// pruned breaks the pruned counts down by (reason, fault-site class),
	// exposed as xentry_pruned_total{reason="...",site="..."} next to the
	// aggregate lines (kept for dashboard compatibility).
	prunedMu sync.Mutex
	pruned   map[[2]string]int64
	// detections counts detected outcomes per technique name (from
	// Event.Technique, so plugin techniques appear without server
	// changes), exposed as xentry_detections_total{technique="..."}.
	detectionsMu sync.Mutex
	detections   map[[2]string]int64
	// recoveries counts recovery-engine attempts by (strategy, outcome
	// class), exposed as xentry_recoveries_total{strategy="...",
	// outcome="..."}.
	recoveriesMu sync.Mutex
	recoveries   map[[2]string]int64
	// sites counts recorded outcomes per fault-site class name, exposed
	// as xentry_injections_total{site="..."}.
	sitesMu sync.Mutex
	sites   map[[2]string]int64
}

// campaign is one registered campaign's runtime state.
type campaign struct {
	id     string
	spec   CampaignSpec
	total  int
	store  *store.Store
	engine *Engine
	events *broadcaster

	mu       sync.Mutex
	state    string
	errMsg   string
	terminal *Event // the engine's campaign_done/failed event, held back
	report   *experiments.CampaignReport
	started  time.Time
	finished time.Time
}

// NewServer creates a campaign server rooted at cfg.DataDir.
func NewServer(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: DataDir required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		campaigns: map[string]*campaign{},
	}, nil
}

// Close stops every running campaign (their stores keep the completed
// outcomes; resubmitting the same spec resumes them).
func (s *Server) Close() { s.cancel() }

// Handler returns the server's HTTP routes: the campaign API, Prometheus-
// style /metrics, and /debug/pprof.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleCreate)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

var idPattern = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	spec = spec.withDefaults()
	if spec.InjectionsPerBenchmark <= 0 {
		httpError(w, http.StatusBadRequest, "injections_per_benchmark must be positive")
		return
	}
	for _, bench := range spec.Benchmarks {
		if _, err := workload.ByName(bench); err != nil {
			httpError(w, http.StatusBadRequest, "unknown benchmark %q", bench)
			return
		}
	}
	for _, name := range spec.Detectors {
		if !detect.HasFactory(name) {
			httpError(w, http.StatusBadRequest, "unknown detector %q", name)
			return
		}
	}
	switch spec.Prune {
	case "", "on", "off":
	default:
		httpError(w, http.StatusBadRequest, "prune must be \"on\" or \"off\", got %q", spec.Prune)
		return
	}
	if engine, err := recovery.EngineFor(spec.Recovery); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	} else if engine != nil && spec.Recover {
		httpError(w, http.StatusBadRequest, "recover and recovery=%q are mutually exclusive", spec.Recovery)
		return
	}
	if spec.VCPUs < 0 || spec.VCPUs > hv.MaxVCPUs {
		httpError(w, http.StatusBadRequest, "vcpus must be in [0,%d], got %d", hv.MaxVCPUs, spec.VCPUs)
		return
	}
	vcpus := spec.VCPUs
	if vcpus == 0 {
		vcpus = 1
	}
	if err := inject.ValidateTargets(spec.Targets, vcpus); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch spec.Execution {
	case "", "pool":
	case "fleet":
		if s.cfg.Fleet == nil {
			httpError(w, http.StatusBadRequest, "execution \"fleet\" needs a server with a fleet listener")
			return
		}
	default:
		httpError(w, http.StatusBadRequest, "execution must be \"pool\" or \"fleet\", got %q", spec.Execution)
		return
	}
	if spec.ID != "" && !idPattern.MatchString(spec.ID) {
		httpError(w, http.StatusBadRequest, "invalid campaign id")
		return
	}

	s.mu.Lock()
	if spec.ID == "" {
		for {
			s.seq++
			id := fmt.Sprintf("c%06d", s.seq)
			if _, taken := s.campaigns[id]; taken {
				continue
			}
			if _, err := os.Stat(filepath.Join(s.cfg.DataDir, id)); err == nil {
				continue // directory from a previous server life
			}
			spec.ID = id
			break
		}
	} else if existing, ok := s.campaigns[spec.ID]; ok {
		state, _ := existing.snapshotState()
		s.mu.Unlock()
		if state == "running" {
			httpError(w, http.StatusConflict, "campaign %s already running", spec.ID)
			return
		}
		httpError(w, http.StatusConflict, "campaign %s already registered (state %s)", spec.ID, state)
		return
	}
	s.mu.Unlock()

	c, err := s.startCampaign(spec)
	if errors.Is(err, errSpecConflict) {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(c.status())
}

// startCampaign opens (or resumes) the store, registers the campaign, and
// launches its run goroutine. Resuming under a spec that would change
// plans or outcomes fails with errSpecConflict before the store opens.
func (s *Server) startCampaign(spec CampaignSpec) (*campaign, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(s.cfg.DataDir, spec.ID)
	if stored, err := store.ReadMeta(dir); err == nil {
		if err := spec.checkResume(stored.Extra); err != nil {
			return nil, err
		}
	}
	st, err := store.Open(dir, store.Meta{
		CampaignID:  spec.ID,
		Benchmarks:  spec.Benchmarks,
		Injections:  spec.InjectionsPerBenchmark,
		Activations: spec.Activations,
		Seed:        spec.Seed,
		Extra:       specJSON,
		Build:       buildInfo(),
	}, store.Options{})
	if err != nil {
		return nil, err
	}
	c := &campaign{
		id:     spec.ID,
		spec:   spec,
		total:  len(spec.Benchmarks) * spec.InjectionsPerBenchmark,
		store:  st,
		events: newBroadcaster(),
		state:  "running",
	}
	c.started = time.Now()
	workers := spec.PoolWorkers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	shardSize := spec.ShardSize
	if shardSize <= 0 {
		shardSize = s.cfg.ShardSize
	}
	c.engine = &Engine{
		Store:        st,
		Workers:      workers,
		ShardSize:    shardSize,
		MaxAttempts:  s.cfg.MaxAttempts,
		ShardTimeout: s.cfg.ShardTimeout,
		OnEvent: func(ev Event) {
			switch ev.Type {
			case EventOutcome:
				s.outcomesRecorded.Add(1)
				if ev.Technique != "" {
					bump(&s.detectionsMu, &s.detections, ev.Technique, "")
				}
				if ev.Site != "" {
					bump(&s.sitesMu, &s.sites, ev.Site, "")
				}
				switch ev.Pruned {
				case "dead":
					s.prunedDead.Add(1)
					bump(&s.prunedMu, &s.pruned, ev.Pruned, ev.Site)
				case "converged":
					s.prunedConverged.Add(1)
					bump(&s.prunedMu, &s.pruned, ev.Pruned, ev.Site)
				}
				if ev.RecoveryStrategy != "" {
					bump(&s.recoveriesMu, &s.recoveries, ev.RecoveryStrategy, ev.RecoveryOutcome)
				}
			case EventShardRequeued:
				s.shardRetries.Add(1)
			case EventWorkerDead:
				s.workerDeaths.Add(1)
			case EventCampaignDone, EventCampaignFailed:
				// runCampaign publishes it once the state is settled, so a
				// client that sees it can fetch the result.
				c.mu.Lock()
				c.terminal = &ev
				c.mu.Unlock()
				return
			}
			c.events.publish(ev)
		},
	}
	if spec.Execution == "fleet" {
		// Fleet mode: the engine leases shards to remote workers; the spec
		// JSON (also persisted in the store's meta) is what workers derive
		// their plans from, and the coordinator's model ships beside it.
		c.engine.Fleet = s.cfg.Fleet
		c.engine.Spec = specJSON
	}
	s.mu.Lock()
	s.campaigns[spec.ID] = c
	s.order = append(s.order, spec.ID)
	s.mu.Unlock()
	go s.runCampaign(c)
	return c, nil
}

// runCampaign trains (optionally), drives the engine to completion, and
// settles the campaign's terminal state.
func (s *Server) runCampaign(c *campaign) {
	res, err := func() (*inject.CampaignResult, error) {
		cfg, err := c.spec.campaignConfig()
		if err != nil {
			return nil, err
		}
		// The coordinator trains once per run, in every execution mode:
		// in-process sessions share cfg, fleet workers receive the model's
		// canonical bytes in Welcome, and Engine.Run pins its hash in the
		// store before any shard is leased.
		if cfg.Model, err = c.spec.model(); err != nil {
			return nil, err
		}
		return c.engine.Run(s.ctx, cfg)
	}()
	c.mu.Lock()
	c.finished = time.Now()
	if err != nil {
		c.state, c.errMsg = "failed", err.Error()
		s.campaignsFailed.Add(1)
	} else {
		c.state = "done"
		c.report = experiments.NewCampaignReport(res, c.spec.Benchmarks)
		s.campaignsDone.Add(1)
	}
	terminal := c.terminal
	c.mu.Unlock()
	c.store.Close()
	if terminal != nil {
		c.events.publish(*terminal)
	}
	c.events.close()
}

func (c *campaign) snapshotState() (state, errMsg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state, c.errMsg
}

// status assembles the live status from the store and the campaign state.
func (c *campaign) status() CampaignStatus {
	c.mu.Lock()
	state, errMsg := c.state, c.errMsg
	started, finished := c.started, c.finished
	c.mu.Unlock()
	st := CampaignStatus{
		ID:           c.id,
		State:        state,
		Error:        errMsg,
		Done:         c.store.TotalCount(),
		Total:        c.total,
		PerBenchmark: map[string]int{},
		Dropped:      c.store.Dropped(),
		StartedAt:    started,
		ModelSHA256:  c.store.Meta().ModelSHA256,
		Build:        buildInfo(),
	}
	for _, bench := range c.spec.Benchmarks {
		st.PerBenchmark[bench] = c.store.Count(bench)
	}
	end := finished
	if end.IsZero() {
		end = time.Now()
	}
	st.ElapsedSeconds = end.Sub(started).Seconds()
	if st.ElapsedSeconds > 0 {
		st.RatePerSecond = float64(st.Done) / st.ElapsedSeconds
	}
	return st
}

func (s *Server) campaign(id string) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]CampaignStatus, 0, len(s.order))
	for _, id := range s.order {
		statuses = append(statuses, s.campaigns[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, statuses)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	writeJSON(w, c.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	c.mu.Lock()
	state, report, errMsg := c.state, c.report, c.errMsg
	c.mu.Unlock()
	switch state {
	case "done":
		writeJSON(w, report)
	case "failed":
		httpError(w, http.StatusConflict, "campaign failed: %s", errMsg)
	default:
		httpError(w, http.StatusConflict, "campaign still running")
	}
}

// handleEvents streams campaign progress as server-sent events: one
// `data: <Event JSON>` line per engine event, starting with a synthetic
// status event, ending with campaign_done/campaign_failed.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	ch, cancel := c.events.subscribe()
	defer cancel()
	// Synthetic opening event with current progress; for a finished
	// campaign (closed broadcaster) it doubles as the terminal event.
	st := c.status()
	first := Event{Type: "status", Campaign: c.id, Done: st.Done, Total: st.Total}
	switch st.State {
	case "done":
		first.Type = EventCampaignDone
	case "failed":
		first.Type = EventCampaignFailed
		first.Err = st.Error
	}
	if !send(first) {
		return
	}
	if first.Type == EventCampaignDone || first.Type == EventCampaignFailed {
		return
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				// Broadcaster closed: campaign settled while we streamed.
				// Emit the terminal event if the subscription missed it.
				state, errMsg := c.snapshotState()
				st := c.status()
				if state == "failed" {
					send(Event{Type: EventCampaignFailed, Campaign: c.id, Done: st.Done, Total: st.Total, Err: errMsg})
				} else {
					send(Event{Type: EventCampaignDone, Campaign: c.id, Done: st.Done, Total: st.Total})
				}
				return
			}
			if !send(ev) {
				return
			}
			if ev.Type == EventCampaignDone || ev.Type == EventCampaignFailed {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// bump increments one counter of a labelled family guarded by mu.
func bump(mu *sync.Mutex, m *map[[2]string]int64, label0, label1 string) {
	mu.Lock()
	if *m == nil {
		*m = map[[2]string]int64{}
	}
	(*m)[[2]string{label0, label1}]++
	mu.Unlock()
}

// writeFamily prints a labelled counter family in label order. format
// receives the two labels and the count; single-label families name
// their arguments explicitly (%[1]q ... %[3]d).
func writeFamily(w io.Writer, mu *sync.Mutex, m *map[[2]string]int64, format string) {
	mu.Lock()
	defer mu.Unlock()
	keys := make([][2]string, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fmt.Fprintf(w, format, k[0], k[1], (*m)[k])
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	total := len(s.campaigns)
	running := 0
	dropped := 0
	for _, c := range s.campaigns {
		if state, _ := c.snapshotState(); state == "running" {
			running++
		}
		dropped += c.store.Dropped()
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "xentry_campaigns_total %d\n", total)
	fmt.Fprintf(w, "xentry_campaigns_running %d\n", running)
	fmt.Fprintf(w, "xentry_campaigns_done_total %d\n", s.campaignsDone.Load())
	fmt.Fprintf(w, "xentry_campaigns_failed_total %d\n", s.campaignsFailed.Load())
	fmt.Fprintf(w, "xentry_outcomes_recorded_total %d\n", s.outcomesRecorded.Load())
	fmt.Fprintf(w, "xentry_shard_retries_total %d\n", s.shardRetries.Load())
	fmt.Fprintf(w, "xentry_worker_deaths_total %d\n", s.workerDeaths.Load())
	fmt.Fprintf(w, "xentry_wal_records_dropped_total %d\n", dropped)
	fmt.Fprintf(w, "xentry_pruned_total{reason=\"dead\"} %d\n", s.prunedDead.Load())
	fmt.Fprintf(w, "xentry_pruned_total{reason=\"converged\"} %d\n", s.prunedConverged.Load())
	writeFamily(w, &s.prunedMu, &s.pruned, "xentry_pruned_total{reason=%q,site=%q} %d\n")
	if s.cfg.Fleet != nil {
		fs := s.cfg.Fleet.Stats()
		fmt.Fprintf(w, "xentry_fleet_workers %d\n", fs.Workers)
		fmt.Fprintf(w, "xentry_fleet_batches_total %d\n", fs.Batches)
		fmt.Fprintf(w, "xentry_fleet_records_total %d\n", fs.Records)
		fmt.Fprintf(w, "xentry_fleet_damaged_records_total %d\n", fs.Damaged)
		fmt.Fprintf(w, "xentry_fleet_slowdown_acks_total %d\n", fs.Slowdowns)
		fmt.Fprintf(w, "xentry_fleet_leases_total %d\n", fs.Leases)
		fmt.Fprintf(w, "xentry_fleet_requeues_total %d\n", fs.Requeues)
	}
	writeFamily(w, &s.sitesMu, &s.sites, "xentry_injections_total{site=%[1]q} %[3]d\n")
	writeFamily(w, &s.detectionsMu, &s.detections, "xentry_detections_total{technique=%[1]q} %[3]d\n")
	writeFamily(w, &s.recoveriesMu, &s.recoveries, "xentry_recoveries_total{strategy=%q,outcome=%q} %d\n")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// broadcaster fans engine events out to any number of SSE subscribers.
// Slow subscribers drop events rather than stalling workers; the terminal
// event is re-synthesized by the handler from campaign state, so a drop
// never wedges a client.
type broadcaster struct {
	mu     sync.Mutex
	subs   map[chan Event]struct{}
	closed bool
}

func newBroadcaster() *broadcaster {
	return &broadcaster{subs: map[chan Event]struct{}{}}
}

func (b *broadcaster) subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 256)
	b.mu.Lock()
	if b.closed {
		close(ch)
		b.mu.Unlock()
		return ch, func() {}
	}
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	return ch, func() {
		b.mu.Lock()
		if _, ok := b.subs[ch]; ok {
			delete(b.subs, ch)
			close(ch)
		}
		b.mu.Unlock()
	}
}

func (b *broadcaster) publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for ch := range b.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop
		}
	}
}

func (b *broadcaster) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for ch := range b.subs {
		close(ch)
		delete(b.subs, ch)
	}
}
