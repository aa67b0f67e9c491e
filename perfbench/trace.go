package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records one span around every call the benchmark makes
// into a layer's public functions. Spans stay in memory and are written
// out once, when the run ends; the per-layer metrics and self times are
// derived from them. Spans inside the program itself are out of scope:
// a layer's internals show only as its span's self time.

// spanID identifies a span; 0 is "no parent".
type spanID int64

// span is one timed call. Name is "<layer>.<function>"; Run groups the
// spans of one campaign repetition; Tag carries a run's provenance and
// site class (e.g. "dead/gpr") for the per-injection breakdowns.
type span struct {
	ID, Parent spanID
	Run        string
	Name       string
	Tag        string
	Start, End time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the span name's first dotted element.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer collects spans from any goroutine. A nil *tracer records
// nothing, so untraced runs share the traced code paths at no cost.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// region is an open span; end stores it.
type region struct {
	t *tracer
	s span
}

// start opens a span named name under parent.
func (t *tracer) start(run, name string, parent spanID) region {
	if t == nil {
		return region{}
	}
	return region{t: t, s: span{ID: spanID(t.next.Add(1)), Parent: parent,
		Run: run, Name: name, Start: time.Since(t.epoch)}}
}

func (r region) id() spanID { return r.s.ID }

func (r region) end() {
	if r.t == nil {
		return
	}
	r.s.End = time.Since(r.t.epoch)
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.s)
	r.t.mu.Unlock()
}

// spanBuf batches one goroutine's hot-path spans so recording a span per
// injection takes no lock; flush hands them to the tracer.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buffer() *spanBuf { return &spanBuf{t: t} }

// record stores a closed span timed by the caller's own clock reads.
func (b *spanBuf) record(run, name, tag string, parent spanID, start, end time.Time) {
	if b.t == nil {
		return
	}
	b.spans = append(b.spans, span{ID: spanID(b.t.next.Add(1)), Parent: parent,
		Run: run, Name: name, Tag: tag, Start: start.Sub(b.t.epoch), End: end.Sub(b.t.epoch)})
}

func (b *spanBuf) flush() {
	if b.t == nil || len(b.spans) == 0 {
		return
	}
	b.t.mu.Lock()
	b.t.spans = append(b.t.spans, b.spans...)
	b.t.mu.Unlock()
	b.spans = nil
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by its children. Children may overlap one
// another (concurrent workers under one benchmark span); covered time is
// their union, clipped to the parent, so overlap is never subtracted
// twice.
func selfTimes(spans []span) map[spanID]time.Duration {
	children := map[spanID][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[spanID]time.Duration, len(spans))
	for _, p := range spans {
		self[p.ID] = p.dur() - covered(p, children[p.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// layerSelf sums self time per layer over the spans of one run.
func layerSelf(spans []span, run string) map[string]time.Duration {
	var mine []span
	for _, s := range spans {
		if s.Run == run {
			mine = append(mine, s)
		}
	}
	self := selfTimes(mine)
	out := map[string]time.Duration{}
	for _, s := range mine {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// writeSpans writes every span as CSV (times in ns since the tracer's
// epoch).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "run,id,parent,name,tag,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%s,%s,%d,%d\n", s.Run, s.ID, s.Parent, s.Name, s.Tag,
			s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
