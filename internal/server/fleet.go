package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"xentry/internal/inject"
	"xentry/internal/store"
	"xentry/internal/wire"
)

// This file is the coordinator side of the campaign data plane and its
// one shard scheduler. A Fleet owns one TCP listener shared by every
// campaign; each fleet-mode Engine.Run registers a fleetRun with it, and
// remote xentry-worker processes connect, lease activation-sorted shards,
// and stream outcome batches back as concatenated WAL-ready record
// frames. A campaign without a fleet registers with a private,
// listener-less Fleet instead, whose sessions are in-process and connect
// over net.Pipe.
//
// The hot path is deliberately narrow: the per-connection goroutine
// verifies and decodes each record (interning strings, so steady state is
// allocation-light), then hands the batch to the campaign's single ingest
// goroutine over a bounded channel. The ingest goroutine group-commits via
// store.AppendBatch — appending the already-framed bytes verbatim — and
// does every piece of lease accounting, so shard settlement is naturally
// ordered after the batches that preceded it on the same connection.
// Nothing on this path touches the HTTP/JSON control plane.
//
// Backpressure is layered: the protocol itself is stop-and-wait per
// worker (a worker sends nothing until its previous frame is acked), the
// ingest channel is bounded (a full channel blocks the ack), and acks
// carry wire.AckSlowdown once the channel passes its high watermark,
// asking the worker to pause before its next batch.

// fleetIngestDepth bounds each campaign's ingest queue (in batches, not
// records). Past half this depth, acks ask workers to slow down.
const fleetIngestDepth = 64

// fleetRetryMillis is the pause a NoWork answer asks a session to take
// before its next lease request.
const fleetRetryMillis = 100

// FleetStats is a snapshot of the fleet's lifetime counters.
type FleetStats struct {
	// Workers is the number of currently connected worker sessions.
	Workers int64
	// Batches/Records/Damaged count accepted batch frames, decoded
	// records, and records rejected inside otherwise-accepted batches.
	Batches int64
	Records int64
	Damaged int64
	// Slowdowns counts acks that carried the slowdown flag.
	Slowdowns int64
	// Leases and Requeues count shard leases granted and shards requeued
	// (expiry, disconnect, failure, or cross-check mismatch).
	Leases   int64
	Requeues int64
}

// Fleet is the binary data plane: one TCP listener accepting persistent
// worker connections for any number of registered campaigns.
type Fleet struct {
	ln net.Listener
	wg sync.WaitGroup

	mu        sync.Mutex
	runs      map[string]*fleetRun
	completed map[string]bool // finished campaigns no longer registered
	conns     map[net.Conn]struct{}
	closed    bool
	workSeq   int

	workers   atomic.Int64
	batches   atomic.Int64
	records   atomic.Int64
	damaged   atomic.Int64
	slowdowns atomic.Int64
	leases    atomic.Int64
	requeues  atomic.Int64
}

// NewFleet listens on addr (e.g. "127.0.0.1:0") and starts accepting
// worker connections. Connections for campaigns that are not (yet)
// registered are refused; workers retry.
func NewFleet(addr string) (*Fleet, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	f := newFleet(ln)
	f.wg.Add(1)
	go f.accept()
	return f, nil
}

// newFleet returns a fleet serving ln; a nil ln gives a listener-less
// fleet that serves only the in-process sessions of one Engine.Run.
func newFleet(ln net.Listener) *Fleet {
	return &Fleet{ln: ln, runs: map[string]*fleetRun{}, completed: map[string]bool{},
		conns: map[net.Conn]struct{}{}}
}

// Addr returns the listener's address, for workers to dial.
func (f *Fleet) Addr() string { return f.ln.Addr().String() }

// Stats snapshots the fleet counters.
func (f *Fleet) Stats() FleetStats {
	return FleetStats{
		Workers:   f.workers.Load(),
		Batches:   f.batches.Load(),
		Records:   f.records.Load(),
		Damaged:   f.damaged.Load(),
		Slowdowns: f.slowdowns.Load(),
		Leases:    f.leases.Load(),
		Requeues:  f.requeues.Load(),
	}
}

// Close stops the listener and severs every worker connection. Registered
// runs are not failed — their campaigns resume from the store.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	conns := make([]net.Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	if f.ln != nil {
		f.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	f.wg.Wait()
}

func (f *Fleet) register(run *fleetRun) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("fleet: closed")
	}
	if _, dup := f.runs[run.id]; dup {
		return fmt.Errorf("fleet: campaign %s already registered", run.id)
	}
	f.runs[run.id] = run
	delete(f.completed, run.id)
	return nil
}

// unregister removes a run. A finished campaign is remembered, so a worker
// that redials after completion is told Done instead of being refused
// until its dial budget runs out.
func (f *Fleet) unregister(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if run := f.runs[id]; run != nil && run.phase() == fleetRunDone {
		f.completed[id] = true
	}
	delete(f.runs, id)
}

// lookup returns the campaign's registered run, or whether it completed.
func (f *Fleet) lookup(id string) (*fleetRun, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runs[id], f.completed[id]
}

func (f *Fleet) accept() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		wid, ok := f.track(conn)
		if !ok {
			conn.Close()
			return
		}
		go f.serveConn(conn, wid)
	}
}

// track registers a connection for Close and assigns its session id; the
// caller then runs serveConn on it. It reports false once the fleet is
// closed.
func (f *Fleet) track(conn net.Conn) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, false
	}
	f.conns[conn] = struct{}{}
	f.workSeq++
	f.wg.Add(1)
	return f.workSeq, true
}

// refuse sends a best-effort protocol error and lets the deferred close
// drop the connection.
func refuse(conn net.Conn, format string, args ...any) {
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	conn.Write(wire.AppendError(nil, wire.ErrorMsg{Err: fmt.Sprintf(format, args...)}))
}

// serveConn drives one worker session: Hello/Welcome, then a strict
// request/response loop. Any protocol violation or I/O error ends the
// session; an active lease held by the session is requeued.
func (f *Fleet) serveConn(conn net.Conn, wid int) {
	defer f.wg.Done()
	defer func() {
		conn.Close()
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	r := wire.NewReader(conn)

	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	payload, err := r.Next()
	if err != nil {
		return
	}
	msg, err := wire.DecodeMsg(payload)
	if err != nil || msg.Type != wire.MsgHello {
		refuse(conn, "fleet: expected hello")
		return
	}
	if msg.Hello.Version != wire.ProtoVersion {
		refuse(conn, "fleet: protocol version %d unsupported (want %d)", msg.Hello.Version, wire.ProtoVersion)
		return
	}
	run, completed := f.lookup(msg.Hello.Campaign)
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if completed {
		conn.Write(wire.AppendDone(nil))
		return
	}
	if run == nil {
		refuse(conn, "fleet: unknown campaign %q", msg.Hello.Campaign)
		return
	}
	if _, err := conn.Write(wire.AppendWelcome(nil, wire.Welcome{Version: wire.ProtoVersion, Spec: run.eng.Spec, Model: run.model})); err != nil {
		return
	}

	f.workers.Add(1)
	defer f.workers.Add(-1)
	sess := &fleetSession{fleet: f, run: run, wid: wid, dec: wire.NewDecoder()}
	// A dying connection requeues whatever lease it held — through the
	// ingest channel, so the requeue is ordered after the session's
	// already-queued batches.
	defer sess.connLost()

	var out []byte
	for {
		// The read deadline reaps connections whose worker silently
		// vanished; a healthy worker streams batches or polls for leases
		// far more often than this.
		conn.SetReadDeadline(time.Now().Add(run.leaseTimeout + 30*time.Second))
		payload, err := r.Next()
		if err != nil {
			return
		}
		msg, err := wire.DecodeMsg(payload)
		if err != nil {
			refuse(conn, "fleet: %v", err)
			return
		}
		out = out[:0]
		switch msg.Type {
		case wire.MsgLeaseReq:
			out, err = sess.leaseReq(out)
		case wire.MsgBatch:
			out, err = sess.batch(out, msg.Batch)
		case wire.MsgShardDone:
			out, err = sess.shardDone(out, msg.ShardDone)
		case wire.MsgShardFail:
			out, err = sess.shardFail(out, msg.ShardFail)
		default:
			refuse(conn, "fleet: unexpected message type %d", msg.Type)
			return
		}
		if err != nil {
			refuse(conn, "fleet: %v", err)
			return
		}
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// fleetSession is one connected worker's per-connection state.
type fleetSession struct {
	fleet *Fleet
	run   *fleetRun
	wid   int
	dec   *wire.Decoder
}

func (s *fleetSession) leaseReq(out []byte) ([]byte, error) {
	if l := s.run.grantLease(s.wid); l != nil {
		s.fleet.leases.Add(1)
		return wire.AppendLease(out, *l), nil
	}
	switch s.run.phase() {
	case fleetRunDone:
		return wire.AppendDone(out), nil
	case fleetRunStopped:
		return nil, fmt.Errorf("campaign %s is not running", s.run.id)
	default:
		return wire.AppendNoWork(out, wire.NoWork{RetryMillis: fleetRetryMillis}), nil
	}
}

// batch verifies and decodes one batch's record frames, queues the result
// for ingest, and acks with the backpressure flag. Individual records that
// fail their CRC or decode are counted as damage (the lease cross-check
// will requeue the remainder); framing corruption is a protocol error that
// ends the session.
func (s *fleetSession) batch(out []byte, b *wire.Batch) ([]byte, error) {
	// One copy per batch: entries and their Frame slices must outlive the
	// connection reader's buffer, which the next frame reuses.
	block := append([]byte(nil), b.Block...)
	// Records is sender-controlled: cap the capacity hint at what the
	// block could physically hold (one header per record, minimum) so a
	// hostile count can't drive a giant or panicking allocation.
	hint := uint64(len(block) / wire.FrameHeader)
	if b.Records < hint {
		hint = b.Records
	}
	entries := make([]store.BatchEntry, 0, hint)
	damaged := 0
	rest := block
	for len(rest) > 0 {
		payload, next, err := wire.SplitFrame(rest)
		if err == wire.ErrChecksum {
			damaged++
			rest = next
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("batch framing: %w", err)
		}
		frame := rest[:len(rest)-len(next)]
		bench, index, o, derr := s.dec.DecodeRecord(payload)
		if derr != nil || !s.run.validRecord(bench, index) {
			damaged++
			rest = next
			continue
		}
		entries = append(entries, store.BatchEntry{Bench: bench, Index: index, Outcome: o, Frame: frame})
		rest = next
	}
	if err := s.run.submit(ingestItem{kind: itemBatch, lease: b.Lease, wid: s.wid, entries: entries, damaged: damaged}); err != nil {
		return nil, err
	}
	s.run.renewLease(b.Lease, s.wid)
	s.fleet.batches.Add(1)
	s.fleet.records.Add(int64(len(entries)))
	s.fleet.damaged.Add(int64(damaged))
	var flags uint64
	if len(s.run.ingest) >= fleetIngestDepth/2 {
		flags |= wire.AckSlowdown
		s.fleet.slowdowns.Add(1)
	}
	return wire.AppendBatchAck(out, wire.BatchAck{Flags: flags}), nil
}

func (s *fleetSession) shardDone(out []byte, sd *wire.ShardDone) ([]byte, error) {
	tally := append([]byte(nil), sd.Tally...)
	if err := s.run.submit(ingestItem{kind: itemDone, lease: sd.Lease, wid: s.wid, claimed: sd.Claimed, tally: tally}); err != nil {
		return nil, err
	}
	return wire.AppendBatchAck(out, wire.BatchAck{}), nil
}

func (s *fleetSession) shardFail(out []byte, sf *wire.ShardFail) ([]byte, error) {
	if err := s.run.submit(ingestItem{kind: itemFail, lease: sf.Lease, wid: s.wid, errMsg: sf.Err}); err != nil {
		return nil, err
	}
	return wire.AppendBatchAck(out, wire.BatchAck{}), nil
}

func (s *fleetSession) connLost() {
	// Best-effort: if the run is torn down the item is pointless anyway.
	select {
	case s.run.ingest <- ingestItem{kind: itemConnLost, wid: s.wid}:
	case <-s.run.done:
	}
}

// ingestItem is one unit of work for a campaign's ingest goroutine.
// Routing lease lifecycle events through the same channel as the batches
// keeps same-connection ordering: a ShardDone is processed only after
// every batch the worker sent before it.
type ingestItem struct {
	kind    byte
	lease   uint64
	wid     int
	entries []store.BatchEntry
	damaged int
	claimed uint64
	tally   []byte
	errMsg  string
}

const (
	itemBatch = iota
	itemDone
	itemFail
	itemExpire
	itemConnLost
)

// fleetRun phases, as seen by lease requests.
type fleetRunPhase int

const (
	fleetRunActive fleetRunPhase = iota
	// fleetRunDone: the campaign completed; workers should disconnect.
	fleetRunDone
	// fleetRunStopped: the run was cancelled or failed. Sessions are
	// refused so workers fall back to redialing — which is what lets a
	// persistent worker find the campaign again when it resumes.
	fleetRunStopped
)

// fleetShard is one shard's coordinator-side state across lease attempts.
type fleetShard struct {
	bench   string
	benchAt int
	shard   int
	attempt int
	indices []int
}

// fleetLease is one outstanding lease. deadline and wid are guarded by the
// run mutex; the accounting fields (accepted, damaged, tally) are touched
// only by the ingest goroutine.
type fleetLease struct {
	id       uint64
	wid      int
	shard    *fleetShard
	deadline time.Time

	accepted int
	damaged  int
	tally    *inject.Tally
}

// fleetRun is one campaign's live fleet execution: the shard queue, the
// lease table, and the ingest pipeline.
type fleetRun struct {
	id           string
	eng          *Engine
	fleet        *Fleet
	store        *store.Store
	total        int
	benches      map[string]bool
	injections   int
	maxAttempts  int
	leaseTimeout time.Duration
	// model is the canonical encoding of the campaign's transition model
	// (empty without one), encoded once and served in every Welcome.
	model []byte

	ingest     chan ingestItem
	done       chan struct{}
	ingestDone chan struct{} // closed when the ingest goroutine exits
	dec        *wire.Decoder // ingest-goroutine only

	mu          sync.Mutex
	cond        *sync.Cond
	queue       []*fleetShard
	leases      map[uint64]*fleetLease
	leaseSeq    uint64
	outstanding int
	finished    bool
	stopped     bool
	err         error
	// local maps each live in-process session's id to its worker end of
	// the pipe; killed holds the sessions KillWorker severed, whose
	// queued messages no longer settle or fail a lease.
	local  map[int]net.Conn
	killed map[int]bool
}

func newFleetRun(e *Engine, f *Fleet, cfg inject.CampaignConfig, leaseTimeout time.Duration, maxAttempts int) *fleetRun {
	run := &fleetRun{
		id:           e.Store.Meta().CampaignID,
		eng:          e,
		fleet:        f,
		store:        e.Store,
		total:        len(cfg.Benchmarks) * cfg.InjectionsPerBenchmark,
		benches:      map[string]bool{},
		injections:   cfg.InjectionsPerBenchmark,
		maxAttempts:  maxAttempts,
		leaseTimeout: leaseTimeout,
		ingest:       make(chan ingestItem, fleetIngestDepth),
		done:         make(chan struct{}),
		ingestDone:   make(chan struct{}),
		dec:          wire.NewDecoder(),
		leases:       map[uint64]*fleetLease{},
		local:        map[int]net.Conn{},
		killed:       map[int]bool{},
	}
	for _, b := range cfg.Benchmarks {
		run.benches[b] = true
	}
	run.cond = sync.NewCond(&run.mu)
	return run
}

// validRecord bounds what a batch may fold: a benchmark of this campaign
// and an index inside the plan range. Anything else is damage, not data —
// and folding a wild index would grow the store's dedup bitmap to it.
func (run *fleetRun) validRecord(bench string, index int) bool {
	return run.benches[bench] && index >= 0 && index < run.injections
}

func (run *fleetRun) phase() fleetRunPhase {
	run.mu.Lock()
	defer run.mu.Unlock()
	if run.finished {
		return fleetRunDone
	}
	if run.stopped || run.err != nil {
		return fleetRunStopped
	}
	return fleetRunActive
}

// submit queues one item for the ingest goroutine, blocking while the
// queue is full — the connection-level backpressure — and failing once the
// run is torn down.
func (run *fleetRun) submit(item ingestItem) error {
	select {
	case run.ingest <- item:
		return nil
	case <-run.done:
		return fmt.Errorf("campaign %s is not running", run.id)
	}
}

// renewLease pushes a lease's expiry out after an accepted batch: batches
// are the worker's heartbeat, and the slowdown flag rides their acks.
func (run *fleetRun) renewLease(id uint64, wid int) {
	run.mu.Lock()
	if l := run.leases[id]; l != nil && l.wid == wid {
		l.deadline = time.Now().Add(run.leaseTimeout)
	}
	run.mu.Unlock()
}

// grantLease pops the next shard that still has un-stored indices and
// leases it to the worker. Shards whose every index landed in the store
// meanwhile (stale-lease duplicates) settle on the spot. Events go out
// after run.mu is released.
func (run *fleetRun) grantLease(wid int) *wire.Lease {
	var settled []*fleetShard
	var lease *wire.Lease
	var sh *fleetShard
	run.mu.Lock()
	for !run.finished && !run.stopped && run.err == nil && !run.killed[wid] && len(run.queue) > 0 {
		sh = run.queue[0]
		run.queue = run.queue[1:]
		if run.dropStored(sh) == 0 {
			settled = append(settled, sh)
			continue
		}
		run.leaseSeq++
		run.leases[run.leaseSeq] = &fleetLease{
			id:       run.leaseSeq,
			wid:      wid,
			shard:    sh,
			deadline: time.Now().Add(run.leaseTimeout),
			tally:    inject.NewTally(),
		}
		// Copy the indices: the wire message is encoded after run.mu is
		// released, and if the lease expires first, requeue() filters
		// sh.indices in place on the ingest goroutine.
		lease = &wire.Lease{ID: run.leaseSeq, Bench: sh.bench, BenchAt: sh.benchAt, Shard: sh.shard,
			Indices: append([]int(nil), sh.indices...)}
		break
	}
	run.mu.Unlock()
	run.settle(wid, settled...)
	if lease != nil {
		run.emitShard(EventShardStart, sh, wid, "")
	}
	return lease
}

// emitShard emits one shard lifecycle event. Callers must not hold run.mu.
func (run *fleetRun) emitShard(typ EventType, sh *fleetShard, wid int, errMsg string) {
	run.eng.emit(Event{Type: typ, Campaign: run.id, Bench: sh.bench, Shard: sh.shard, Worker: wid,
		Attempt: sh.attempt, Done: run.store.TotalCount(), Total: run.total, Err: errMsg})
}

// settle marks shards complete. Their shard_done events go out before the
// outstanding count drops, so campaign_done follows every one of them.
func (run *fleetRun) settle(wid int, shards ...*fleetShard) {
	if len(shards) == 0 {
		return
	}
	for _, sh := range shards {
		run.emitShard(EventShardDone, sh, wid, "")
	}
	run.mu.Lock()
	run.outstanding -= len(shards)
	run.cond.Broadcast()
	run.mu.Unlock()
}

func (run *fleetRun) fail(err error) {
	run.mu.Lock()
	if run.err == nil {
		run.err = err
	}
	run.cond.Broadcast()
	run.mu.Unlock()
}

// requeue puts a shard's still-missing indices back at the head of the
// queue; the next lease request settles it on the spot if none are left.
// bumpAttempt distinguishes shards that consumed an attempt
// (worker-reported errors, cross-check mismatches, expired leases) from
// reassignments (disconnects and kills — the shard did nothing wrong).
func (run *fleetRun) requeue(sh *fleetShard, wid int, cause error, bumpAttempt bool) {
	if bumpAttempt && run.dropStored(sh) > 0 {
		sh.attempt++
		if sh.attempt > run.maxAttempts {
			run.fail(fmt.Errorf("server: %s shard %d failed after %d attempts: %w",
				sh.bench, sh.shard, run.maxAttempts, cause))
			return
		}
	}
	run.fleet.requeues.Add(1)
	run.emitShard(EventShardRequeued, sh, wid, cause.Error())
	// Every benchmark's shards are queued up front: a retry goes first,
	// while sessions still hold its benchmark's prepared run.
	run.mu.Lock()
	run.queue = append([]*fleetShard{sh}, run.queue...)
	run.mu.Unlock()
}

// dropStored filters out of a shard the indices the store already holds
// and returns how many remain.
func (run *fleetRun) dropStored(sh *fleetShard) int {
	remaining := sh.indices[:0]
	for _, i := range sh.indices {
		if !run.store.Has(sh.bench, i) {
			remaining = append(remaining, i)
		}
	}
	sh.indices = remaining
	return len(remaining)
}

// kill severs one in-process session. Marking it killed first, under the
// lock the ingest goroutine takes to settle a lease, means a ShardDone the
// session queued before the kill no longer counts; the connection loss
// then requeues its lease.
func (run *fleetRun) kill(wid int) error {
	run.mu.Lock()
	conn, ok := run.local[wid]
	if ok {
		run.killed[wid] = true
	}
	run.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: no worker %d", wid)
	}
	return conn.Close()
}

// enqueueBench adds one benchmark's shards to the queue.
func (run *fleetRun) enqueueBench(benchAt int, bench string, shards [][]int) {
	run.mu.Lock()
	for si, indices := range shards {
		run.queue = append(run.queue, &fleetShard{bench: bench, benchAt: benchAt, shard: si, attempt: 1, indices: indices})
	}
	run.outstanding += len(shards)
	run.mu.Unlock()
}

// wait blocks until every enqueued shard settled, the run failed, or the
// context was cancelled.
func (run *fleetRun) wait(ctx context.Context) error {
	run.mu.Lock()
	defer run.mu.Unlock()
	for {
		if run.err != nil {
			return run.err
		}
		if run.outstanding == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		run.cond.Wait()
	}
}

// finish flips lease requests to Done so connected workers drain and exit.
func (run *fleetRun) finish() {
	run.mu.Lock()
	run.finished = true
	run.mu.Unlock()
}

// stop tears the run down. Lingering sessions of a cancelled or failed run
// flip to refusal so their workers redial (and find the campaign when it
// resumes) instead of polling a dead run forever; a finished run keeps
// answering Done. It returns once the ingest goroutine has exited: after
// Run returns, the caller may close (and on resume, reopen) the store, so
// no ingest write may still be in flight.
func (run *fleetRun) stop() {
	run.fleet.unregister(run.id)
	run.mu.Lock()
	run.stopped = true
	run.mu.Unlock()
	close(run.done)
	<-run.ingestDone
}

// ingestLoop is the campaign's single ingest goroutine: it folds batches
// into the store (group-committed, frames appended verbatim), does all
// lease accounting, and settles or requeues shards. One consumer means
// per-connection FIFO order is preserved end to end. A cancelled run
// folds nothing more: batches acked but still queued when ctx died are
// left for the resumed run to re-lease.
func (run *fleetRun) ingestLoop(ctx context.Context) {
	defer close(run.ingestDone)
	for {
		select {
		case item := <-run.ingest:
			if ctx.Err() != nil {
				return
			}
			run.process(item)
		case <-run.done:
			return
		}
	}
}

// reap turns expired leases into ingest items. The expiry is re-checked
// under the lock at processing time, so a batch that renewed the lease in
// the meantime wins.
func (run *fleetRun) reap() {
	period := run.leaseTimeout / 4
	if period < 20*time.Millisecond {
		period = 20 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-run.done:
			return
		case now := <-t.C:
			run.mu.Lock()
			var expired []uint64
			for id, l := range run.leases {
				if now.After(l.deadline) {
					expired = append(expired, id)
				}
			}
			run.mu.Unlock()
			for _, id := range expired {
				select {
				case run.ingest <- ingestItem{kind: itemExpire, lease: id}:
				case <-run.done:
					return
				}
			}
		}
	}
}

func (run *fleetRun) process(item ingestItem) {
	switch item.kind {
	case itemBatch:
		run.processBatch(item)
	case itemDone:
		run.processDone(item)
	case itemFail:
		if l := run.takeLease(item.lease, item.wid); l != nil {
			run.requeue(l.shard, item.wid, errors.New(item.errMsg), true)
		}
	case itemExpire:
		run.mu.Lock()
		l := run.leases[item.lease]
		if l == nil || time.Now().Before(l.deadline) {
			run.mu.Unlock()
			return
		}
		delete(run.leases, item.lease)
		run.mu.Unlock()
		run.requeue(l.shard, l.wid, errors.New("lease expired"), true)
	case itemConnLost:
		run.mu.Lock()
		var lost []*fleetLease
		for id, l := range run.leases {
			if l.wid == item.wid {
				delete(run.leases, id)
				lost = append(lost, l)
			}
		}
		run.mu.Unlock()
		for _, l := range lost {
			run.emitShard(EventWorkerDead, l.shard, item.wid, "worker disconnected")
			run.requeue(l.shard, item.wid, errors.New("worker disconnected"), false)
		}
	}
}

// takeLease removes and returns a lease if it is still owned by wid and
// wid was not killed; a killed session's leases wait for its connection
// loss to requeue them.
func (run *fleetRun) takeLease(id uint64, wid int) *fleetLease {
	run.mu.Lock()
	defer run.mu.Unlock()
	l := run.leases[id]
	if l == nil || l.wid != wid || run.killed[wid] {
		return nil
	}
	delete(run.leases, id)
	return l
}

func (run *fleetRun) processBatch(item ingestItem) {
	if len(item.entries) > 0 {
		if _, err := run.store.AppendBatch(item.entries); err != nil {
			run.fail(fmt.Errorf("server: fleet ingest: %w", err))
			return
		}
	}
	if run.eng.OnEvent != nil {
		run.mu.Lock()
		shard := -1
		if l := run.leases[item.lease]; l != nil {
			shard = l.shard.shard
		}
		run.mu.Unlock()
		for i := range item.entries {
			e := &item.entries[i]
			if !e.Fresh {
				continue
			}
			done, total := run.store.TotalCount(), run.total
			ev := Event{Type: EventOutcome, Campaign: run.id, Bench: e.Bench,
				Shard: shard, Worker: item.wid, Done: done, Total: total,
				Site: e.Outcome.Plan.Site.String()}
			if e.Outcome.Detected.Detected() {
				ev.Technique = e.Outcome.Detected.String()
			}
			if e.Outcome.Pruned != inject.PruneNone {
				ev.Pruned = e.Outcome.Pruned.String()
			}
			if e.Outcome.Recovery.Attempted {
				ev.RecoveryStrategy = e.Outcome.Recovery.Strategy.String()
				ev.RecoveryOutcome = e.Outcome.Recovery.Class.String()
			}
			run.eng.emit(ev)
		}
	}
	// Lease accounting: the coordinator's own fold of everything that
	// arrived for the lease, duplicates included — the worker's ShardDone
	// tally covers exactly what it streamed, fresh or not.
	run.mu.Lock()
	l := run.leases[item.lease]
	run.mu.Unlock()
	if l == nil || l.wid != item.wid {
		return // stale lease: records folded (dedup absorbed them), no accounting
	}
	l.accepted += len(item.entries)
	l.damaged += item.damaged
	for i := range item.entries {
		l.tally.Add(item.entries[i].Outcome)
	}
}

// processDone cross-checks a completed lease: every claimed record must
// have arrived undamaged, and the worker's own tally of the shard must be
// bit-identical to the coordinator's fold of what it received. Any
// discrepancy requeues the remainder (consuming an attempt) — corruption
// or divergence is never silently folded into the campaign.
func (run *fleetRun) processDone(item ingestItem) {
	l := run.takeLease(item.lease, item.wid)
	if l == nil {
		return // expired or reassigned; its replacement settles the shard
	}
	if l.damaged > 0 || uint64(l.accepted) != item.claimed {
		run.requeue(l.shard, item.wid, fmt.Errorf("lease %d: %d of %d records arrived, %d damaged",
			l.id, l.accepted, item.claimed, l.damaged), true)
		return
	}
	workerTally, err := run.dec.DecodeTallyFull(item.tally)
	if err != nil {
		run.requeue(l.shard, item.wid, fmt.Errorf("lease %d: worker tally: %w", l.id, err), true)
		return
	}
	l.tally.Normalize()
	workerTally.Normalize()
	if !reflect.DeepEqual(l.tally, workerTally) {
		run.requeue(l.shard, item.wid, fmt.Errorf("lease %d: worker tally diverges from coordinator fold", l.id), true)
		return
	}
	run.settle(item.wid, l.shard)
}
