// Package server is the distributed campaign service: a sharded
// coordinator/worker engine that executes an injection campaign through a
// durable result store (Engine), and the HTTP/JSON coordinator that
// exposes it (Server) — submit campaigns, watch status, stream progress
// events, fetch results rendered exactly like single-process runs.
//
// The engine splits each benchmark's plan list into activation-sorted
// shards and leases them to worker sessions over the binary shard
// protocol: remote xentry-worker processes on a Fleet listener, or, for
// a campaign without one, in-process sessions over net.Pipe that run the
// same session code. A lease that fails — session killed or
// disconnected, lease expired, simulator error — is requeued minus
// whatever outcomes the store already holds and picked up by any live
// session; outcomes fold at their original plan index, so the final
// aggregates are bit-identical to single-process inject.RunCampaign with
// the same seed no matter how the work was split, retried, or
// reassigned.
package server

import (
	"context"
	"fmt"
	"maps"
	"net"
	"runtime"
	"sync"
	"time"

	"xentry/internal/inject"
	"xentry/internal/store"
)

// EventType labels an engine progress event.
type EventType string

// Engine event types.
const (
	EventBenchmarkStart EventType = "benchmark_start"
	EventShardStart     EventType = "shard_start"
	EventShardDone      EventType = "shard_done"
	EventShardRequeued  EventType = "shard_requeued"
	EventWorkerDead     EventType = "worker_dead"
	EventOutcome        EventType = "outcome"
	EventCampaignDone   EventType = "campaign_done"
	EventCampaignFailed EventType = "campaign_failed"
)

// Event is one engine progress event. Done/Total are cumulative campaign
// progress (stored outcomes over planned injections) and are set on every
// event type.
type Event struct {
	Type     EventType `json:"type"`
	Campaign string    `json:"campaign,omitempty"`
	Bench    string    `json:"bench,omitempty"`
	Shard    int       `json:"shard,omitempty"`
	Worker   int       `json:"worker,omitempty"`
	Attempt  int       `json:"attempt,omitempty"`
	Done     int       `json:"done"`
	Total    int       `json:"total"`
	Err      string    `json:"err,omitempty"`
	// Technique is the registered name of the detecting technique on
	// outcome events whose injection was detected (empty otherwise).
	// Plugin techniques flow through by name: the server's per-technique
	// /metrics counters key on this string, not on any enum.
	Technique string `json:"technique,omitempty"`
	// Pruned is the run-provenance label on outcome events whose run was
	// pruned ("dead" or "converged", empty for full runs); it feeds the
	// server's xentry_pruned_total metric and the SSE stream.
	Pruned string `json:"pruned,omitempty"`
	// RecoveryStrategy/RecoveryOutcome label outcome events on which the
	// recovery engine fired: the strategy applied and the final outcome
	// class ("full", "degraded", "guest-corrupted", "failed"). They feed
	// the xentry_recoveries_total metric and the SSE stream.
	RecoveryStrategy string `json:"recovery_strategy,omitempty"`
	RecoveryOutcome  string `json:"recovery_outcome,omitempty"`
	// Site is the fault-site class of the injected plan on outcome events
	// ("gpr", "ctl", "dtlb", "apic", "pmu", "pgtable"); it feeds the
	// xentry_injections_total{site="..."} metric and the SSE stream.
	Site string `json:"site,omitempty"`
}

// Engine executes one campaign through a durable store, leasing shards to
// worker sessions. Zero values get defaults on Run.
type Engine struct {
	// Store receives every outcome and assembles the result. Required; a
	// partially full store resumes — stored indices are never re-planned.
	Store *store.Store
	// Workers is the number of in-process sessions a campaign without a
	// Fleet runs (default GOMAXPROCS).
	Workers int
	// ShardSize is the number of plan indices per shard (default 64).
	ShardSize int
	// MaxAttempts bounds tries per shard before the campaign fails
	// (default 3). Worker-reported failures, cross-check mismatches and
	// lease expiries consume an attempt; a disconnected or killed
	// session does not — its shard requeues with its attempt count.
	MaxAttempts int
	// ShardTimeout is the lease timeout: a lease with no accepted batch
	// for this long expires and its shard requeues (default 2 minutes).
	ShardTimeout time.Duration
	// OnEvent, when set, receives every engine event. It is called
	// synchronously from the run's coordinator, connection and ingest
	// goroutines, never with the lease table locked, and must be safe for
	// that.
	OnEvent func(Event)
	// Fleet, when set, executes the campaign over the remote worker fleet:
	// shards are leased to connected xentry-worker processes, and their
	// batched results are group-committed off the HTTP/JSON path. Workers
	// and KillWorker apply only to the in-process sessions of a campaign
	// without a Fleet.
	Fleet *Fleet
	// Spec is the canonical campaign spec JSON served to fleet workers in
	// the Welcome message; each worker derives its CampaignConfig (plans,
	// detectors, trained model) from it. Required in fleet mode, and it
	// must describe exactly the config passed to Run. In-process sessions
	// use the config passed to Run directly.
	Spec []byte

	mu  sync.Mutex
	run *fleetRun
}

func (e *Engine) emit(ev Event) {
	if e.OnEvent != nil {
		e.OnEvent(ev)
	}
}

// KillWorker severs one in-process session mid-shard, as if its process
// died; id is the session id carried in Event.Worker. The session does
// not redial, and its lease requeues (minus already-stored outcomes)
// without consuming an attempt; anything it sent that the coordinator has
// not yet processed no longer settles a shard. Only valid while Run is
// active.
func (e *Engine) KillWorker(id int) error {
	e.mu.Lock()
	run := e.run
	e.mu.Unlock()
	if run == nil {
		return fmt.Errorf("server: engine not running")
	}
	return run.kill(id)
}

// Run executes the campaign to completion — every plan index the store
// does not already hold — and returns the normalized aggregates from the
// store. The coordinator derives each benchmark's plan list (PreparePlans,
// no checkpoint pool) only to compute the activation-sorted shard split,
// and enqueues every benchmark's shards as soon as they are known. The
// context cancels the whole run; a cancelled run resumes later from
// whatever the store persisted.
func (e *Engine) Run(ctx context.Context, cfg inject.CampaignConfig) (*inject.CampaignResult, error) {
	if e.Store == nil {
		return nil, fmt.Errorf("server: engine needs a store")
	}
	cfg = cfg.Normalized()
	f := e.Fleet
	if f == nil {
		f = newFleet(nil)
		defer f.Close()
	} else if len(e.Spec) == 0 {
		return nil, fmt.Errorf("server: fleet mode needs Engine.Spec (the campaign spec JSON workers derive their config from)")
	}
	shardSize := e.ShardSize
	if shardSize <= 0 {
		shardSize = 64
	}
	maxAttempts := e.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	leaseTimeout := e.ShardTimeout
	if leaseTimeout <= 0 {
		leaseTimeout = 2 * time.Minute
	}
	total := len(cfg.Benchmarks) * cfg.InjectionsPerBenchmark
	id := e.Store.Meta().CampaignID

	run := newFleetRun(e, f, cfg, leaseTimeout, maxAttempts)
	if err := f.register(run); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.run = run
	e.mu.Unlock()
	sessCtx, stopSessions := context.WithCancel(ctx)
	var sessions sync.WaitGroup
	defer func() {
		e.mu.Lock()
		e.run = nil
		e.mu.Unlock()
		stopSessions()
		sessions.Wait()
		run.stop()
	}()
	go run.ingestLoop(ctx)
	go run.reap()
	// Wake the coordinator's wait when the run context dies. Holding run.mu
	// keeps the Broadcast from landing between wait()'s ctx.Err() check
	// and its cond.Wait(), which would lose the wakeup.
	defer context.AfterFunc(ctx, func() {
		run.mu.Lock()
		run.cond.Broadcast()
		run.mu.Unlock()
	})()

	progress := func() int { return e.Store.TotalCount() }
	fail := func(bench string, err error) (*inject.CampaignResult, error) {
		e.emit(Event{Type: EventCampaignFailed, Campaign: id, Bench: bench,
			Done: progress(), Total: total, Err: err.Error()})
		return nil, err
	}
	started := e.Fleet != nil
	for bi, bench := range cfg.Benchmarks {
		if e.Store.Count(bench) >= cfg.InjectionsPerBenchmark {
			continue // fully stored: skip even the golden run
		}
		if err := ctx.Err(); err != nil {
			return fail(bench, err)
		}
		e.emit(Event{Type: EventBenchmarkStart, Campaign: id, Bench: bench, Done: progress(), Total: total})
		plans, err := inject.PreparePlans(cfg, bi)
		if err != nil {
			return nil, err
		}
		order := inject.ActivationOrder(plans)
		todo := order[:0]
		for _, i := range order {
			if !e.Store.Has(bench, i) {
				todo = append(todo, i)
			}
		}
		run.enqueueBench(bi, bench, inject.SliceShards(todo, shardSize))
		if !started {
			// Sessions start with the first shards, so none polls an
			// empty queue while the coordinator derives plans.
			started = true
			workers := e.Workers
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			for wid, conn := range run.connectLocal(workers) {
				sessions.Add(1)
				go func() {
					defer sessions.Done()
					run.localSession(sessCtx, cfg, wid, conn)
				}()
			}
		}
	}
	if err := run.wait(ctx); err != nil {
		return fail("", err)
	}
	run.finish()
	res, err := e.Store.Result()
	if err != nil {
		return nil, err
	}
	e.emit(Event{Type: EventCampaignDone, Campaign: id, Done: progress(), Total: total})
	return res, nil
}

// connectLocal opens n in-process session transports: net.Pipes whose
// coordinator ends the run's own fleet serves (it stays open until the
// sessions end). It returns each worker end by session id, and registers
// all of them before any session runs, so the first to die cannot take
// itself for the last.
func (run *fleetRun) connectLocal(n int) map[int]net.Conn {
	conns := map[int]net.Conn{}
	for range n {
		client, srv := net.Pipe()
		wid, _ := run.fleet.track(srv)
		go run.fleet.serveConn(srv, wid)
		conns[wid] = client
	}
	run.mu.Lock()
	maps.Copy(run.local, conns)
	run.mu.Unlock()
	return conns
}

// localSession runs RunWorker's session body over an in-process
// connection. It takes the coordinator's config, model included, instead
// of re-deriving it from the Welcome spec, and it never redials. When the
// last session dies while the campaign still has work, the run fails.
func (run *fleetRun) localSession(ctx context.Context, cfg inject.CampaignConfig, wid int, conn net.Conn) {
	// A batch over a pipe costs no network round trip, so flush often: the
	// first outcomes, and the progress events they carry, go out after
	// milliseconds rather than after a whole shard.
	opts := WorkerOptions{Campaign: run.id, FlushInterval: 5 * time.Millisecond}
	opts.withDefaults()
	st := &workerState{opts: &opts, cfg: cfg, local: true, benchAt: -1}
	err := st.session(ctx, conn)

	run.mu.Lock()
	delete(run.local, wid)
	last := len(run.local) == 0
	run.mu.Unlock()
	if last && err != nil && ctx.Err() == nil {
		run.fail(fmt.Errorf("server: last worker died: %w", err))
	}
}
