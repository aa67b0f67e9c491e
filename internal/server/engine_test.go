package server

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xentry/internal/inject"
	"xentry/internal/store"
	"xentry/internal/wire"
)

func testCampaignConfig() inject.CampaignConfig {
	cfg := inject.DefaultCampaign(40, 29)
	cfg.Benchmarks = []string{"canneal"}
	cfg.Activations = 48
	cfg.Workers = 2
	return cfg
}

func testStore(t *testing.T, cfg inject.CampaignConfig, id string) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Meta{
		CampaignID:  id,
		Benchmarks:  cfg.Benchmarks,
		Injections:  cfg.InjectionsPerBenchmark,
		Activations: cfg.Activations,
		Seed:        cfg.Seed,
	}, store.Options{MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestEngineKillWorkerBitIdentical is the coordinator acceptance test: a
// campaign sharded across multiple in-process workers, with one worker
// killed mid-shard and its shard reassigned to the survivors, produces a
// Tally bit-identical to single-process RunCampaign with the same seed.
func TestEngineKillWorkerBitIdentical(t *testing.T) {
	cfg := testCampaignConfig()
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	e := &Engine{
		Store:     testStore(t, cfg, "c-kill"),
		Workers:   3,
		ShardSize: 5,
	}
	var outcomes atomic.Int64
	var killed atomic.Bool
	var sawDead, sawRequeue atomic.Bool
	deadWorker := int64(-1)
	var mu sync.Mutex
	e.OnEvent = func(ev Event) {
		switch ev.Type {
		case EventOutcome:
			// Kill the worker that emitted the 8th outcome, mid-shard.
			if outcomes.Add(1) == 8 && killed.CompareAndSwap(false, true) {
				mu.Lock()
				deadWorker = int64(ev.Worker)
				mu.Unlock()
				if err := e.KillWorker(ev.Worker); err != nil {
					t.Errorf("kill worker %d: %v", ev.Worker, err)
				}
			}
		case EventWorkerDead:
			sawDead.Store(true)
		case EventShardRequeued:
			sawRequeue.Store(true)
		case EventShardDone:
			mu.Lock()
			dead := deadWorker
			mu.Unlock()
			if dead >= 0 && int64(ev.Worker) == dead {
				t.Errorf("dead worker %d completed a shard after being killed", dead)
			}
		}
	}
	got, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Load() {
		t.Fatal("test never killed a worker — campaign too small for the kill point")
	}
	if !sawDead.Load() || !sawRequeue.Load() {
		t.Error("expected worker_dead and shard_requeued events after the kill")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sharded aggregates differ from single-process run:\ngot:  %+v\nwant: %+v",
			got.Total, want.Total)
	}
}

// TestEngineLastWorkerDeathFails: killing the only in-process session
// fails the run with an error instead of leaving it waiting for a worker
// that will never come.
func TestEngineLastWorkerDeathFails(t *testing.T) {
	cfg := testCampaignConfig()
	e := &Engine{Store: testStore(t, cfg, "c-last"), Workers: 1, ShardSize: 5}
	var killed atomic.Bool
	e.OnEvent = func(ev Event) {
		if ev.Type == EventOutcome && killed.CompareAndSwap(false, true) {
			if err := e.KillWorker(ev.Worker); err != nil {
				t.Errorf("kill worker %d: %v", ev.Worker, err)
			}
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(context.Background(), cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "last worker died") {
			t.Fatalf("run with its only session killed returned %v, want a last-worker error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run with no live session hung")
	}
}

// TestEngineResumeAfterInterrupt: a campaign whose first part is already
// in the WAL resumes (fresh store, fresh engine) and finishes with
// aggregates bit-identical to an uninterrupted run — both in memory and
// when the finished WAL is replayed from disk.
func TestEngineResumeAfterInterrupt(t *testing.T) {
	cfg := testCampaignConfig()
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := store.Meta{
		CampaignID:  "c-interrupt",
		Benchmarks:  cfg.Benchmarks,
		Injections:  cfg.InjectionsPerBenchmark,
		Activations: cfg.Activations,
		Seed:        cfg.Seed,
	}
	cases := []struct {
		name string
		// first writes the first part of the campaign into the store.
		first func(t *testing.T, s *store.Store)
	}{
		{"interrupted-engine", func(t *testing.T, s *store.Store) {
			// An engine run cancelled after 12 outcomes.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var outcomes atomic.Int64
			e1 := &Engine{
				Store:     s,
				Workers:   2,
				ShardSize: 6,
				OnEvent: func(ev Event) {
					if ev.Type == EventOutcome && outcomes.Add(1) == 12 {
						cancel()
					}
				},
			}
			if _, err := e1.Run(ctx, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run returned %v, want context.Canceled", err)
			}
		}},
		{"json-records", func(t *testing.T, s *store.Store) {
			// Store.Record writes JSON records, as xentry-campaign -store
			// does; the engine's sessions finish with binary frames.
			br, err := inject.PrepareBenchmark(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			w := br.Runner.NewWorker()
			for _, i := range inject.ActivationOrder(br.Plans)[:15] {
				o, err := w.RunOne(br.Plans[i])
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Record(cfg.Benchmarks[0], i, o); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func(opts store.Options) *store.Store {
				t.Helper()
				opts.MaxSegmentBytes = 2048
				s, err := store.Open(dir, meta, opts)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			s1 := open(store.Options{})
			tc.first(t, s1)
			s1.Close()

			s2 := open(store.Options{})
			stored := s2.TotalCount()
			if stored < 12 || stored >= cfg.InjectionsPerBenchmark {
				s2.Close()
				t.Fatalf("stored %d outcomes before resume, want a partial campaign", stored)
			}
			e2 := &Engine{Store: s2, Workers: 2, ShardSize: 6}
			got, err := e2.Run(context.Background(), cfg)
			if err != nil {
				s2.Close()
				t.Fatal(err)
			}
			if !s2.Complete() {
				t.Error("store incomplete after resumed engine run")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resumed aggregates differ from uninterrupted run:\ngot:  %+v\nwant: %+v",
					got.Total, want.Total)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3 := open(store.Options{ReadOnly: true})
			defer s3.Close()
			replayed, err := s3.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(replayed, want) {
				t.Errorf("replayed WAL differs from uninterrupted run:\ngot:  %+v\nwant: %+v",
					replayed.Total, want.Total)
			}
		})
	}
}

// TestEngineShardTimeoutExhaustsAttempts: a shard that never completes —
// every lease on it goes silent until it expires — exhausts MaxAttempts
// and fails the campaign with the shard's error rather than hanging.
func TestEngineShardTimeoutExhaustsAttempts(t *testing.T) {
	cfg := testCampaignConfig()
	cfg.InjectionsPerBenchmark = 8
	f, err := NewFleet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e := &Engine{
		Store:        testStore(t, cfg, "c-timeout"),
		Fleet:        f,
		Spec:         []byte("{}"),
		ShardSize:    4,
		MaxAttempts:  2,
		ShardTimeout: 50 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go holdLeasesSilently(ctx, f.Addr(), "c-timeout")
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "failed after 2 attempts: lease expired") {
			t.Fatalf("campaign whose leases all expire returned %v, want the shard's attempt-exhaustion error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign with failing shards hung instead of exhausting attempts")
	}
}

// holdLeasesSilently is a raw wire client that never completes a shard:
// it keeps opening sessions, leasing a shard on each, and then sends
// nothing more on that connection, so every lease runs into its expiry.
func holdLeasesSilently(ctx context.Context, addr, campaign string) {
	var held []net.Conn
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for ctx.Err() == nil {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		r := wire.NewReader(conn)
		next := func(frame []byte) wire.MsgType {
			if _, err := conn.Write(frame); err != nil {
				return wire.MsgError
			}
			payload, err := r.Next()
			if err != nil {
				return wire.MsgError
			}
			m, err := wire.DecodeMsg(payload)
			if err != nil {
				return wire.MsgError
			}
			return m.Type
		}
		if next(wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Campaign: campaign})) == wire.MsgWelcome &&
			next(wire.AppendLeaseReq(nil)) == wire.MsgLease {
			held = append(held, conn)
			continue
		}
		conn.Close()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEngineMultiBenchmarkMatchesRunCampaign: sharding across benchmarks
// (including the per-benchmark seed schedule) folds back bit-identically.
func TestEngineMultiBenchmarkMatchesRunCampaign(t *testing.T) {
	cfg := inject.DefaultCampaign(24, 31)
	cfg.Benchmarks = []string{"mcf", "postmark"}
	cfg.Activations = 40
	cfg.Workers = 2
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: testStore(t, cfg, "c-multi"), Workers: 4, ShardSize: 7}
	got, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("multi-benchmark sharded aggregates differ:\ngot:  %+v\nwant: %+v",
			got.Total, want.Total)
	}
}

// TestEngineResumePrunedCampaignMidShard is the pruning interruption
// acceptance test: a campaign whose runs are dead-pruned and
// convergence-early-exited is killed mid-shard, resumed from the WAL by a
// fresh engine, and must end bit-identical to an uninterrupted run —
// including the Pruned provenance counts, which therefore have to survive
// the WAL record round-trip and the snapshot/merge path.
func TestEngineResumePrunedCampaignMidShard(t *testing.T) {
	cfg := testCampaignConfig()
	want, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The differential is vacuous unless the campaign actually prunes.
	if p := want.Total.Prune; p.Dead == 0 || p.Converged == 0 {
		t.Fatalf("campaign too small to exercise both prune mechanisms: %+v", p)
	}

	dir := t.TempDir()
	meta := store.Meta{
		CampaignID:  "c-prune-interrupt",
		Benchmarks:  cfg.Benchmarks,
		Injections:  cfg.InjectionsPerBenchmark,
		Activations: cfg.Activations,
		Seed:        cfg.Seed,
	}
	s1, err := store.Open(dir, meta, store.Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var outcomes atomic.Int64
	e1 := &Engine{
		Store:     s1,
		Workers:   2,
		ShardSize: 6,
		OnEvent: func(ev Event) {
			if ev.Type == EventOutcome && outcomes.Add(1) == 10 {
				cancel()
			}
		},
	}
	if _, err := e1.Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	s1.Close()

	s2, err := store.Open(dir, meta, store.Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.TotalCount(); n < 10 || n >= cfg.InjectionsPerBenchmark {
		t.Fatalf("stored %d outcomes before resume, want a partial campaign", n)
	}
	e2 := &Engine{Store: s2, Workers: 2, ShardSize: 6}
	got, err := e2.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed pruned campaign differs from uninterrupted run:\ngot:  %+v\nwant: %+v",
			got.Total, want.Total)
	}
	if got.Total.Prune != want.Total.Prune {
		t.Errorf("prune provenance lost across WAL resume: got %+v want %+v",
			got.Total.Prune, want.Total.Prune)
	}
}
