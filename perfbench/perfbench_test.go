package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xentry/internal/wire"
)

func TestSummarizeMedianAndTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1: summarize must sort
	}
	d := summarize(xs)
	// 90 is the highest rank with ten samples (91..100) beyond it.
	want := dist{N: 100, P50: 50, P99: 99, Tail: 90, TailPct: 90}
	if d != want {
		t.Fatalf("summarize(1..100) = %+v, want %+v", d, want)
	}

	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if d := summarize(xs); d.Tail != d.P99 || d.TailPct != 99 {
		t.Fatalf("with 1000 samples the tail should be p99: %+v", d)
	}
	if d := summarize([]float64{3, 1, 2}); d.N != 3 || d.P50 != 2 || d.Tail != 0 || d.TailPct != 0 {
		t.Fatalf("three samples have no tail with %d beyond it: %+v", tailMinBeyond, d)
	}
	if d := summarize(nil); d != (dist{}) {
		t.Fatalf("summarize(nil) = %+v", d)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Run: "r", Name: "bench.rep", Start: 0, End: 100 * ms},
		// Two concurrent workers overlapping on [30,50], and a child that
		// runs past its parent's end.
		{ID: 2, Parent: 1, Run: "r", Name: "bench.worker", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Run: "r", Name: "bench.worker", Start: 30 * ms, End: 70 * ms},
		{ID: 4, Parent: 1, Run: "r", Name: "server.Client.Report", Start: 90 * ms, End: 120 * ms},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 2, Run: "r", Name: "inject.Worker.RunOne", Start: 20 * ms, End: 45 * ms},
	}
	self := selfTimes(spans)
	want := map[spanID]time.Duration{
		1: 30 * ms, // 100 - |[10,70] ∪ [90,100]|
		2: 15 * ms,
		3: 40 * ms,
		4: 30 * ms,
		5: 25 * ms,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	layers := layerSelf(spans, "r")
	if layers["bench"] != 85*ms || layers["inject"] != 25*ms || layers["server"] != 30*ms {
		t.Fatalf("layer self times %v", layers)
	}
}

// small is a workload shrunk to test size.
func small(t *testing.T, name string, injections int) workloadSpec {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.injections = injections
	return w
}

func TestReportDigestStableAcrossInProcessRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the model twice")
	}
	w := small(t, "paper-gpr", 40)
	a, err := w.runRep(11, t.TempDir(), repOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.runRep(11, t.TempDir(), repOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if digest(a.report) != digest(b.report) {
		t.Fatalf("same seed, different reports: %s vs %s", digest(a.report), digest(b.report))
	}
	tr := newTracer()
	c, _, err := w.tracedCampaign(tr, "traced", 11)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.report, a.report) {
		t.Fatalf("traced campaign report %s differs from the untraced %s", digest(c.report), digest(a.report))
	}
	g := &gate{}
	g.checkRep(w, "rep", b, a, 11, record{})
	if !g.ok() {
		t.Fatalf("gate: %v", g.problems)
	}
}

// cuttingProxy forwards fleet worker connections to the coordinator and
// severs the first one mid-way through its first batch frame: the
// coordinator then holds a lease whose records never arrived, from a
// session that died.
type cuttingProxy struct {
	ln     net.Listener
	target string
	cut    atomic.Bool
	wg     sync.WaitGroup
}

func newCuttingProxy(t *testing.T, target string) *cuttingProxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cuttingProxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p
}

func (p *cuttingProxy) close() {
	p.ln.Close()
	p.wg.Wait()
}

func (p *cuttingProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.pipe(c)
	}
}

func (p *cuttingProxy) pipe(c net.Conn) {
	defer p.wg.Done()
	defer c.Close()
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer up.Close()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		io.Copy(c, up)
		c.Close()
	}()
	hdr := make([]byte, wire.FrameHeader)
	for {
		if _, err := io.ReadFull(c, hdr); err != nil {
			return
		}
		payload := make([]byte, binary.LittleEndian.Uint32(hdr))
		if _, err := io.ReadFull(c, payload); err != nil {
			return
		}
		if len(payload) > 0 && wire.MsgType(payload[0]) == wire.MsgBatch && p.cut.CompareAndSwap(false, true) {
			up.Write(hdr)
			up.Write(payload[:len(payload)/2])
			return
		}
		if _, err := up.Write(append(hdr, payload...)); err != nil {
			return
		}
		hdr = make([]byte, wire.FrameHeader)
	}
}

func TestFailRatioSeesCutFleetSession(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the model three times")
	}
	w := small(t, "fleet-dead", 300)
	var proxy *cuttingProxy
	opts := repOptions{workerAddr: func(addr string) string {
		proxy = newCuttingProxy(t, addr)
		return proxy.ln.Addr().String()
	}}
	r, err := w.runRep(5, t.TempDir(), opts)
	if proxy != nil {
		proxy.close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if proxy == nil || !proxy.cut.Load() {
		t.Fatal("the proxy never cut a session")
	}
	if r.failed == 0 || r.fleet.Requeues == 0 {
		t.Fatalf("a cut session must show as failed operations: failed %d, fleet %+v", r.failed, r.fleet)
	}
	t.Logf("cut session: %d failed operations over %d injections, fleet %+v", r.failed, r.injections(), r.fleet)
	if ratio := float64(r.failed) / float64(r.injections()); ratio <= 0 {
		t.Fatalf("fail_ratio %v", ratio)
	}
	model, err := trainModel(5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.referenceReport(5, model)
	if err != nil {
		t.Fatal(err)
	}
	if digest(ref) != digest(r.report) {
		t.Fatalf("report after a cut session %s differs from inject.RunCampaign's %s", digest(r.report), digest(ref))
	}
	if n, err := w.pruneAudit(5, model); err != nil || n == 0 {
		t.Fatalf("prune audit: %d audited, %v", n, err)
	}
}

// TestMetricsMatchBenchmarkJSON holds the metric tables and workloads to
// the repository's BENCHMARK.json and workloads.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		var a, b []string
		for _, d := range defs {
			a = append(a, d.name+" "+d.unit)
		}
		for _, d := range got {
			b = append(b, d.Name+" "+d.Unit)
		}
		sort.Strings(a)
		sort.Strings(b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s metrics: benchmark reports %v, BENCHMARK.json lists %v", what, a, b)
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)

	recs, err := loadRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) || len(recs) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d records, %d defined", len(bj.Workloads), len(recs), len(workloads))
	}
	layerNames := map[string]bool{}
	for _, d := range perLayer {
		layerNames[d.name] = true
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, defined %q", i, bj.Workloads[i].Name, w.name)
		}
		rec, ok := recs[w.name]
		if !ok || rec.Why == "" || rec.DefaultSeed.ReportSHA256 == "" {
			t.Errorf("workload %q has no complete record", w.name)
		}
		for _, l := range rec.Layers {
			if !layerNames[l.Metric] {
				t.Errorf("%s: interaction map names unknown metric %q", w.name, l.Metric)
			}
		}
	}
}
