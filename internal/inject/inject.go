// Package inject implements the fault-injection methodology of the paper's
// evaluation (Section V): single bit-flips in the architectural register
// state (general-purpose registers, instruction and stack pointers, flags)
// at random dynamic points of host-mode execution, one fault per run,
// golden-run differential outcome classification, detection attribution
// per technique, detection-latency measurement, and the undetected-fault
// cause taxonomy of Table II. Beyond the register file, the typed
// fault-site taxonomy (site.go) extends the injection space to uncore
// state — D-TLB entries, per-CPU pending-interrupt/APIC words, PMU
// counters, and shadow page-table words — addressed per vCPU of the SMP
// machine.
package inject

import (
	"fmt"
	"math/rand"
	"sync"

	"xentry/internal/core"
	"xentry/internal/cpu"
	"xentry/internal/detect"
	"xentry/internal/guest"
	"xentry/internal/hv"
	"xentry/internal/isa"
	"xentry/internal/mem"
	"xentry/internal/ml"
	"xentry/internal/perf"
	"xentry/internal/recovery"
	"xentry/internal/sim"
)

// Plan is one injection: flip one bit of one register at one dynamic
// instruction of one hypervisor activation.
//
// Invariant: Step is drawn in [0, Steps) of the *golden* activation, but
// the flip is applied to the *re-executed* activation of the injection run.
// These coincide because the simulator is deterministic: an identically
// configured machine replaying the fault-free prefix retires exactly the
// golden instruction count at Plan.Activation, so the flip always lands
// inside the activation (TestPlanStepInvariantHolds asserts this).
type Plan struct {
	Activation int
	Step       uint64
	Reg        isa.Reg
	Bit        uint8
	// VCPU addresses the logical CPU the fault strikes. For register-file
	// sites it records the CPU scheduled to execute the activation (the
	// flip lands in the executing CPU's register file); for the APIC and
	// PMU sites it selects which CPU's word or counter bank is struck,
	// which need not be the executing CPU — cross-CPU corruption is part
	// of the uncore fault model. Zero on single-CPU machines, so legacy
	// plans marshal unchanged.
	VCPU int `json:",omitempty"`
	// Site is the fault-site class. The zero value SiteGPR is the legacy
	// register space, so pre-taxonomy plans decode correctly.
	Site Site `json:",omitempty"`
	// Index addresses within the site class: the D-TLB slot, the PMU
	// event counter, or the page-table word. Unused (zero) for register
	// and APIC sites.
	Index uint32 `json:",omitempty"`
}

// String formats the plan.
func (p Plan) String() string {
	if !p.Site.Register() {
		return fmt.Sprintf("act=%d step=%d site=%v vcpu=%d idx=%d bit=%d",
			p.Activation, p.Step, p.Site, p.VCPU, p.Index, p.Bit)
	}
	return fmt.Sprintf("act=%d step=%d reg=%v bit=%d", p.Activation, p.Step, p.Reg, p.Bit)
}

// Cause classifies why a manifested fault went undetected (paper Table II).
type Cause int

// Undetected-fault causes.
const (
	// CauseNone: the fault was detected (or never manifested).
	CauseNone Cause = iota
	// CauseMisclassified: the counter signature differed from the golden
	// run but the transition model classified it as correct.
	CauseMisclassified
	// CauseStackValue: the corrupted value moved through stack traffic
	// without altering control flow.
	CauseStackValue
	// CauseTimeValue: a corrupted time value was delivered to the guest
	// (the paper's dominant class, 53%).
	CauseTimeValue
	// CauseOtherValue: other pure data corruption.
	CauseOtherValue
)

// causeNames names every cause; the exhaustiveness test asserts the
// table covers the enum so no cause ever renders as cause(N).
var causeNames = [...]string{
	CauseNone:          "none",
	CauseMisclassified: "misclassified",
	CauseStackValue:    "stack-values",
	CauseTimeValue:     "time-values",
	CauseOtherValue:    "other-values",
}

// Causes returns every cause in render order (CauseNone first).
func Causes() []Cause {
	out := make([]Cause, len(causeNames))
	for i := range out {
		out[i] = Cause(i)
	}
	return out
}

// String names the cause from the table.
func (c Cause) String() string {
	if c >= 0 && int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// Outcome is the full result of one injection run.
type Outcome struct {
	Plan Plan
	// Recovered: a positive detection triggered the live recovery
	// mechanism (restore + re-execute); whether it worked shows in
	// Manifested/Consequence.
	Recovered bool
	// Activated: the flipped value was consumed before being overwritten.
	Activated bool
	// Manifested: the run's outcome differed from the golden run (any
	// failure or data corruption).
	Manifested bool
	// Detected is the first technique that flagged the fault.
	Detected core.Technique
	// DetectedAt is the activation index of the detection (-1 if none).
	DetectedAt int
	// Latency is the instruction count from activation (first consume) to
	// detection.
	Latency uint64
	// LongLatency: the fault crossed a VM entry before manifesting
	// (paper Section II-A, Path 2).
	LongLatency bool
	// Consequence is the golden-run-differential outcome class.
	Consequence guest.Consequence
	// DiffKind is the first guest-visible value class that diverged.
	DiffKind guest.DiffKind
	// Hang: the injected activation exhausted the watchdog budget.
	Hang bool
	// Symbol is the handler the fault was injected into.
	Symbol string
	// FeaturesDiffer: the injected activation's counter signature differed
	// from the golden run's (i.e. the transition detector had signal).
	FeaturesDiffer bool
	// Cause attributes undetected manifested faults (Table II).
	Cause Cause
	// Features is the injected activation's signature when it reached VM
	// entry (training-data source).
	Features    [ml.NumFeatures]uint64
	HasFeatures bool
	// Pruned records how the engine executed the run (full budget,
	// dead-value pre-pruned, or convergence early-exit). Provenance only:
	// every other field is bit-identical with pruning on or off.
	Pruned PruneKind
	// Recovery is the recovery engine's record when it fired during this
	// run (zero value otherwise, which is also what WAL records written
	// before the engine existed decode to).
	Recovery recovery.Outcome
}

// DefaultCheckpointEvery is the default golden-checkpoint interval K: a
// checkpoint is recorded every K activations. Smaller K means less residual
// prefix replay per injection but more checkpoint memory; at 512-byte COW
// pages the memory cost stays negligible well below K=1.
const DefaultCheckpointEvery = 16

// Runner replays a fixed workload configuration and injects faults into it.
type Runner struct {
	Cfg         sim.Config
	Activations int
	Model       *ml.Tree
	Golden      []sim.Activation
	// Recover enables the paper's Section VI recovery mechanism on the
	// injected machines: snapshot at VM exit, restore and re-execute on
	// positive detection.
	Recover bool
	// Recovery arms the ReHype-style recovery engine on the injected
	// machines instead (see internal/recovery). The engine is armed only
	// for the injected run itself — reference replays, golden runs and
	// prefix replays stay fault-free and engine-free — and at most one
	// recovery is attempted per run. Mutually exclusive with Recover.
	// Arming the engine disables pruning: a microreboot rebuilds
	// hypervisor private state, which the fingerprint fold cannot see
	// past, and dead-flip synthesis is unsound when a model false
	// positive can trigger a state-changing reboot.
	Recovery *recovery.Engine
	// CheckpointEvery is the checkpoint interval K: during a reference
	// replay, a full-machine checkpoint is recorded every K activations
	// into a shared read-only pool, and each injection run restores the
	// nearest preceding checkpoint instead of re-simulating the fault-free
	// prefix from machine reset (the paper ran inside Simics, whose
	// checkpointing provides exactly this). 0 means DefaultCheckpointEvery;
	// a negative value records only the reset-state checkpoint (every run
	// replays from activation zero, the pre-checkpoint cost model, while
	// still reusing worker machines). Set it, along with Model, Recover,
	// and DisablePrune, before the first run: the pool is built once,
	// lazily.
	CheckpointEvery int
	// DisablePrune turns off dead-value pre-pruning and convergence early
	// exit (see prune.go), forcing every injection to execute its full
	// activation budget — the differential-test baseline, surfaced as
	// -prune=off on xentry-campaign. Pruning also disables itself when
	// plugin Detectors are configured in Cfg.
	DisablePrune bool
	// Targets are the normalized fault-site target classes RandomPlan
	// draws from (see NormalizeTargets). Empty means the legacy register
	// space, which keeps the plan stream bit-identical to the seed
	// engine. The list is part of the campaign identity: set it before
	// the first plan is drawn or run.
	Targets []string

	ckptOnce sync.Once
	ckptErr  error
	// pool[j] is the machine state immediately before activation j*poolK,
	// recorded from a machine configured exactly like the injection
	// machines (model installed, recovery switch set) so a restore is
	// indistinguishable from having replayed the prefix. Read-only after
	// ckptOnce; shared across workers.
	pool  []*sim.Checkpoint
	poolK int
	// Pruning data, recorded during the same reference replay that builds
	// the pool (all read-only after ckptOnce, nil when pruning is off):
	// fps[i] is the fingerprint of the state entering activation i (i>=1),
	// traces[i] the instruction trace of activation i, ptAccs[i] its
	// page-table-window access record (prune_uncore.go), refs[i] its
	// verdict record, and refHV the reference hypervisor kept for symbol
	// and instruction lookups (both are read-only binary searches).
	fps    []sim.Fingerprint
	traces []regTrace
	ptAccs [][]ptAcc
	refs   []refVerdict
	refHV  *hv.Hypervisor
}

// NewRunner computes the golden run for the configuration. The golden run
// uses the same detection options but no transition model, so it cannot be
// perturbed by false positives.
func NewRunner(cfg sim.Config, activations int, model *ml.Tree) (*Runner, error) {
	golden, err := sim.GoldenRun(cfg, activations)
	if err != nil {
		return nil, err
	}
	return &Runner{Cfg: cfg, Activations: activations, Model: model, Golden: golden}, nil
}

// newMachine builds a machine configured like every injection run's.
// Plugin detectors that calibrate on fault-free behaviour are fed the
// golden run here, so every injection machine judges against the same
// baseline.
func (r *Runner) newMachine() (*sim.Machine, error) {
	m, err := sim.NewMachine(r.Cfg)
	if err != nil {
		return nil, err
	}
	m.SetModel(r.Model)
	m.RecoverOnDetection = r.Recover
	for _, d := range m.Sentry.Detectors() {
		obs, ok := d.(detect.GoldenObserver)
		if !ok {
			continue
		}
		for i := range r.Golden {
			g := &r.Golden[i]
			if g.Outcome.HasFeatures {
				obs.ObserveGolden(g.Ev.Reason, g.Outcome.Features)
			}
		}
	}
	return m, nil
}

// EnsureCheckpoints builds the checkpoint pool if checkpointing is enabled
// and the pool has not been built yet. It is called automatically on the
// first run; calling it eagerly (e.g. before starting a timer) is safe and
// idempotent, also across concurrent workers.
func (r *Runner) EnsureCheckpoints() error {
	r.ckptOnce.Do(func() { r.ckptErr = r.buildCheckpoints() })
	return r.ckptErr
}

func (r *Runner) buildCheckpoints() error {
	poolK := r.CheckpointEvery
	if poolK == 0 {
		poolK = DefaultCheckpointEvery
	}
	if poolK < 0 {
		// Checkpointing "off" still records the reset-state checkpoint:
		// restoring it and replaying from activation zero is bit-identical
		// to building a fresh machine, and it lets workers reuse their
		// machine across runs instead of reconstructing one per injection
		// (the K=off campaign path was ~8x the allocations of K>=1 for no
		// simulation benefit).
		poolK = r.Activations
		if poolK < 1 {
			poolK = 1
		}
	}
	m, err := r.newMachine()
	if err != nil {
		return err
	}
	prune := r.pruneEnabled()
	pool := make([]*sim.Checkpoint, 0, (r.Activations+poolK-1)/poolK)
	fps := make([]sim.Fingerprint, r.Activations)
	refs := make([]refVerdict, r.Activations)
	var traces []regTrace
	var ents []traceEnt
	var ptAccs [][]ptAcc
	var ptEnts []ptAcc
	var hooks []func(step, pc uint64)
	if prune {
		traces = make([]regTrace, r.Activations)
		ptAccs = make([][]ptAcc, r.Activations)
		// One hook per CPU: the trace entry is CPU-independent, but the
		// page-table access recorder needs the executing CPU's live
		// register file to compute effective addresses.
		hooks = make([]func(step, pc uint64), len(m.HV.CPUs))
		for ci, c := range m.HV.CPUs {
			c := c
			hooks[ci] = func(step, pc uint64) {
				ents = append(ents, traceEnt{pc: pc, step: step})
				if in, ok := m.HV.Seg.InstrAt(pc); ok {
					ptEnts = appendPTAcc(ptEnts, len(ents)-1, in, c)
				}
			}
		}
	}
	var prev *mem.Checkpoint
	for i := 0; i < r.Activations; i++ {
		var cp *sim.Checkpoint
		if i%poolK == 0 {
			cp = m.Checkpoint()
			pool = append(pool, cp)
		}
		if prune && i > 0 {
			// Fingerprint the state entering activation i, chaining the
			// memory fold off the previous boundary's image so only pages
			// dirtied by one activation are rehashed. Pool checkpoints
			// reuse their own image as the chain link, which doubles as
			// pre-warming the page-hash cache workers fold against.
			var mcp *mem.Checkpoint
			if cp != nil {
				mcp = cp.MemImage()
			} else {
				mcp = m.HV.Mem.Checkpoint()
			}
			fps[i] = sim.Fingerprint{
				Arch:   m.HV.ArchHash(),
				Uncore: m.HV.UncoreHash(),
				Mem:    mcp.FoldFrom(prev),
			}
			prev = mcp
		} else if cp != nil {
			prev = cp.MemImage()
		}
		if prune {
			// Attach the trace hook to every CPU: exactly one CPU executes
			// each activation, so the trace records the executing CPU's
			// instructions regardless of the schedule.
			ents = ents[:0]
			ptEnts = ptEnts[:0]
			for ci, c := range m.HV.CPUs {
				c.PreStep = hooks[ci]
			}
		}
		act, err := m.Step()
		for _, c := range m.HV.CPUs {
			c.PreStep = nil
		}
		if err != nil {
			return fmt.Errorf("inject: checkpoint reference run: %w", err)
		}
		refs[i] = refVerdict{
			steps:     act.Outcome.Result.Steps,
			technique: act.Outcome.Technique,
			first:     act.FirstDetection,
			recovered: act.Recovered,
		}
		if prune {
			traces[i] = append(regTrace(nil), ents...)
			if len(ptEnts) > 0 {
				ptAccs[i] = append([]ptAcc(nil), ptEnts...)
			}
		}
	}
	if prune && r.Recovery != nil {
		// pruneEnabled's engine rule is provisional until this replay has
		// run: the golden stream it inspects is recorded detector-free, so
		// a model's false positives surface only in refs. A reference
		// detection would fire the armed engine in a live suffix but never
		// in a folded one — recovery attempts, not outcomes, would drift —
		// so any detection here turns pruning off (refs[i].recovered covers
		// it for completeness; the engine-armed replay is engine-free, so
		// only technique can actually be set).
		for i := range refs {
			if refs[i].technique != core.TechNone || refs[i].recovered {
				prune = false
				break
			}
		}
	}
	r.pool, r.poolK = pool, poolK
	r.refs = refs
	if prune {
		r.fps, r.traces, r.ptAccs, r.refHV = fps, traces, ptAccs, m.HV
	}
	return nil
}

// Worker is one campaign worker's execution context: it owns a reusable
// simulated machine that is restored from the shared checkpoint pool for
// each run instead of being rebuilt from scratch. Workers are not safe for
// concurrent use; create one per goroutine (the Runner and its pool are
// shared safely).
type Worker struct {
	r *Runner
	m *sim.Machine
	// recBuf is the reusable guest-record buffer for suffix classification;
	// it never leaves RunOne, so one allocation serves the worker's whole
	// campaign share.
	recBuf []guest.Record
	// base is the memory image of the checkpoint the machine was last
	// restored from: the incremental-hash base for convergence checks
	// (pages still shared with it reuse its cached page hashes).
	base *mem.Checkpoint
}

// NewWorker returns a worker bound to the runner.
func (r *Runner) NewWorker() *Worker { return &Worker{r: r} }

// machineAt returns a machine whose state is exactly the fault-free stream
// immediately before the given activation: restored from the nearest
// preceding checkpoint plus a short residual replay when checkpointing is
// on, or a fresh machine replaying from reset when it is off.
func (w *Worker) machineAt(activation int) (*sim.Machine, error) {
	r := w.r
	if err := r.EnsureCheckpoints(); err != nil {
		return nil, err
	}
	m := w.m
	if len(r.pool) > 0 {
		if m == nil {
			var err error
			if m, err = r.newMachine(); err != nil {
				return nil, err
			}
			w.m = m
		}
		cp := r.pool[activation/r.poolK]
		if err := m.RestoreFrom(cp); err != nil {
			return nil, err
		}
		w.base = cp.MemImage()
	} else {
		var err error
		if m, err = r.newMachine(); err != nil {
			return nil, err
		}
		w.base = nil
	}
	for i := m.StepIndex(); i < activation; i++ {
		if _, err := m.Step(); err != nil {
			return nil, fmt.Errorf("inject: prefix replay: %w", err)
		}
	}
	return m, nil
}

// RandomPlan draws an injection plan uniformly over the golden run's
// host-mode dynamic instructions and the configured fault-site target
// classes (r.Targets; the architectural register state when empty). With
// the legacy register-only targets the rng draw sequence is byte-for-byte
// the seed engine's, so plan streams — and therefore campaigns — replay
// bit-identically.
func (r *Runner) RandomPlan(rng *rand.Rand) Plan {
	a := rng.Intn(r.Activations)
	steps := r.Golden[a].Outcome.Result.Steps
	if steps == 0 {
		steps = 1
	}
	if registerTargetsOnly(r.Targets) {
		// Register choice: 16 GPRs + RIP + RFLAGS, uniform.
		regChoice := rng.Intn(isa.NumGPR + 2)
		reg := isa.Reg(regChoice)
		switch regChoice {
		case isa.NumGPR:
			reg = isa.RIP
		case isa.NumGPR + 1:
			reg = isa.RFLAGS
		}
		p := Plan{
			Activation: a,
			Step:       uint64(rng.Int63n(int64(steps))),
			Reg:        reg,
			Bit:        uint8(rng.Intn(64)),
		}
		// Site and VCPU are derived, not drawn: the legacy draw sequence
		// above must stay untouched for bit-identical replays.
		p.Site = siteForReg(reg)
		p.VCPU = r.Golden[a].Ev.VCPU
		return p
	}
	nvcpus := r.Cfg.VCPUs
	if nvcpus < 1 {
		nvcpus = 1
	}
	p := Plan{Activation: a}
	switch r.Targets[rng.Intn(len(r.Targets))] {
	case "gpr":
		regChoice := rng.Intn(isa.NumGPR + 2)
		p.Reg = isa.Reg(regChoice)
		switch regChoice {
		case isa.NumGPR:
			p.Reg = isa.RIP
		case isa.NumGPR + 1:
			p.Reg = isa.RFLAGS
		}
		p.Site = siteForReg(p.Reg)
		p.VCPU = r.Golden[a].Ev.VCPU
	case "dtlb":
		// One shared D-TLB per machine (the Memory is shared), so the
		// plan's VCPU stays zero.
		p.Site = SiteTLB
		p.Index = uint32(rng.Intn(mem.TLBSlots))
	case "apic":
		p.Site = SiteAPIC
		p.VCPU = rng.Intn(nvcpus)
	case "pmu":
		p.Site = SitePMU
		p.VCPU = rng.Intn(nvcpus)
		p.Index = uint32(rng.Intn(int(perf.NumEvents)))
	case "pgtable":
		p.Site = SitePT
		p.Index = uint32(rng.Intn(hv.PageTableWords))
	}
	p.Step = uint64(rng.Int63n(int64(steps)))
	p.Bit = uint8(rng.Intn(64))
	return p
}

// siteForReg classifies a register plan's site: RIP/RFLAGS are control
// state, everything below NumGPR is the GPR file.
func siteForReg(reg isa.Reg) Site {
	if int(reg) < isa.NumGPR {
		return SiteGPR
	}
	return SiteCtl
}

// timeSymbols are the routines whose RAX/RDX values carry platform time.
var timeSymbols = map[string]bool{
	"read_platform_time": true,
	"do_apic_timer":      true,
	"do_softirq":         true,
	"do_set_timer_op":    true,
	"update_runstate":    true,
}

// stackSymbols are the routines that move guest state through the
// hypervisor stack frame.
var stackSymbols = map[string]bool{
	"ret_to_guest":           true,
	"ret_to_guest_hypercall": true,
}

// stackOps are the consumers that route a corrupted value through the stack.
func isStackConsumer(op isa.Op) bool {
	switch op {
	case isa.OpPush, isa.OpPop, isa.OpCall, isa.OpRet:
		return true
	}
	return false
}

// RunOne executes one injection run and classifies its outcome. It is a
// convenience wrapper over a single-use Worker; campaign loops should hold
// one Worker per goroutine so the machine is reused across runs.
func (r *Runner) RunOne(plan Plan) (Outcome, error) {
	return r.NewWorker().RunOne(plan)
}

// RunOne executes one injection run and classifies its outcome. The
// worker's machine is positioned at the plan's activation via the
// checkpoint pool (or a from-reset replay when checkpointing is off) —
// either way its state is byte-identical to the fault-free prefix, so
// outcomes do not depend on the checkpoint interval.
func (w *Worker) RunOne(plan Plan) (Outcome, error) {
	r := w.r
	if plan.Activation < 0 || plan.Activation >= r.Activations {
		return Outcome{}, fmt.Errorf("inject: plan activation %d out of range", plan.Activation)
	}
	if err := r.EnsureCheckpoints(); err != nil {
		return Outcome{}, err
	}
	if o, ok := r.prunePlan(plan); ok {
		return o, nil
	}
	m, err := w.machineAt(plan.Activation)
	if err != nil {
		return Outcome{}, err
	}
	// Arm the recovery engine for the injected run only (machineAt's
	// prefix replay above ran engine-free, matching the reference replay
	// that built the checkpoint pool). The engine disarms after its first
	// attempt: one recovery per run.
	m.Recovery = r.Recovery
	defer func() { m.Recovery = nil }()

	act, f, err := r.injectActivation(m, plan)
	if err != nil {
		return Outcome{}, err
	}
	o := Outcome{Plan: plan, DetectedAt: -1, Activated: f.activated, Symbol: f.symbol}
	if act.Recovery.Attempted {
		m.Recovery = nil
		o.Recovery = act.Recovery
	}
	res := act.Outcome.Result

	// Host-mode failure before VM entry: a short-latency error. When the
	// recovery engine fired, reaching here means the re-execution itself
	// died under the watchdog — recovery failed outright.
	if res.Stop != cpu.StopVMEntry {
		o.Hang = act.Outcome.Hang
		o.foldVerdict(plan.Activation, &act, sub(res.Steps, f.step))
		o.Consequence = guest.AllVMFailure
		o.DiffKind = guest.DiffNone
		o.Manifested = true
		o.Cause = r.undetectedCause(&o, f.haveConsumer, f.consumerOp)
		if o.Recovery.Attempted {
			o.Recovery.Class = recovery.Classify(false, guest.AllVMFailure)
		}
		return o, nil
	}

	// The execution crossed VM entry. Record the transition verdict and
	// the signature.
	o.Features = act.Outcome.Features
	o.HasFeatures = act.Outcome.HasFeatures
	o.FeaturesDiffer = act.Outcome.HasFeatures &&
		act.Outcome.Features != r.Golden[plan.Activation].Outcome.Features
	latencyBase := sub(res.Steps, f.step)
	o.foldVerdict(plan.Activation, &act, latencyBase)

	// Convergence check (prune.go): after each completed activation,
	// compare against the golden fingerprint at the next boundary. The
	// arch hash alone rejects almost every diverged run — TSC and the
	// cycle counter differ the moment the run retired a different
	// instruction count, detected, or recovered — so the memory fold runs
	// only on arch matches, and a deterministic budget of fold mismatches
	// (possible only through counter re-coincidence) caps the worst case.
	// The check sits after the activation's own detectors have executed
	// and its record is captured, so early exit can neither mask a
	// detection nor skip a record comparison.
	checkConv := r.fps != nil
	foldBudget := convFoldBudget
	converged := func(after int) bool {
		next := after + 1
		if !checkConv || next >= r.Activations {
			return false
		}
		fp := r.fps[next]
		if m.HV.ArchHash() != fp.Arch {
			return false
		}
		if m.HV.UncoreHash() != fp.Uncore {
			// A poisoned TLB entry or perturbed PMU bank has not
			// re-coincided; cheap (no fold), so no budget charge.
			return false
		}
		if m.HV.Mem.FoldFrom(w.base) != fp.Mem {
			if foldBudget--; foldBudget <= 0 {
				checkConv = false
			}
			return false
		}
		return true
	}

	// Run the rest of the workload, comparing guest-visible state against
	// the golden stream and watching for late detections from corrupted
	// hypervisor state. On convergence the unexecuted suffix is folded
	// from the reference verdicts instead (identical to executing it, by
	// the fingerprint argument).
	records := append(w.recBuf[:0], act.Record)
	truncated := false
	runningLatency := latencyBase
	if converged(plan.Activation) {
		o.Pruned = PruneConverged
		r.foldRefSuffix(&o, plan.Activation+1, runningLatency)
	} else {
		for i := plan.Activation + 1; i < r.Activations; i++ {
			act2, err := m.Step()
			if err != nil {
				return Outcome{}, fmt.Errorf("inject: suffix replay: %w", err)
			}
			o.foldVerdict(i, &act2, runningLatency+act2.Outcome.Result.Steps)
			if act2.Recovery.Attempted {
				// Late detection from corrupted hypervisor state fired the
				// engine during the suffix.
				m.Recovery = nil
				o.Recovery = act2.Recovery
			}
			if act2.Outcome.Result.Stop != cpu.StopVMEntry {
				truncated = true
				break
			}
			runningLatency += act2.Outcome.Result.Steps
			records = append(records, act2.Record)
			if converged(i) {
				o.Pruned = PruneConverged
				r.foldRefSuffix(&o, i+1, runningLatency)
				break
			}
		}
	}
	w.recBuf = records[:0]

	// Golden-differential consequence classification.
	worst := guest.Benign
	worstKind := guest.DiffNone
	for i, rec := range records {
		g := &r.Golden[plan.Activation+i]
		cons, kind := guest.ClassifyRecord(g.Record, rec, g.Ev.Dom == 0)
		if cons > worst {
			worst = cons
			worstKind = kind
		}
	}
	if truncated {
		worst = guest.AllVMFailure
	}
	o.Consequence = worst
	o.DiffKind = worstKind
	o.Manifested = worst != guest.Benign
	o.LongLatency = o.Manifested
	o.Cause = r.undetectedCause(&o, f.haveConsumer, f.consumerOp)
	if o.Recovery.Attempted {
		o.Recovery.Class = recovery.Classify(!truncated, worst)
	}
	return o, nil
}

// flipFate is what the injection hook observed of a plan's flip during the
// injected activation.
type flipFate struct {
	// activated: the flipped value was consumed (or, for uncore sites,
	// took hold) before being overwritten.
	activated bool
	// symbol is the handler executing when the flip landed.
	symbol string
	// step is the dynamic instruction of the first consumption (the flip
	// itself for RIP and uncore sites).
	step uint64
	// consumerOp is the consuming instruction's opcode, when one was seen.
	consumerOp   isa.Op
	haveConsumer bool
}

// injectActivation executes plan's injected activation on m, which must
// stand at the fault-free state entering plan.Activation: it arms the flip
// on the CPU scheduled to execute the activation, steps the machine once,
// and disarms. This is the one injection hook, shared by the campaign
// engine (Worker.RunOne) and training-data collection (CollectDataset).
// Register flips land in the executing CPU's file; uncore flips are
// applied from its hook but may address another CPU's APIC word or PMU
// bank (plan.VCPU).
func (r *Runner) injectActivation(m *sim.Machine, plan Plan) (sim.Activation, flipFate, error) {
	ev := r.Golden[plan.Activation].Ev
	c := m.HV.CPUFor(&ev)
	var (
		f           flipFate
		injected    bool
		overwritten bool
	)
	if !plan.Site.Register() {
		if plan.Site == SiteTLB {
			// The TLB's warmth at this point depends on the checkpoint
			// interval (a restore invalidates, residual replay re-warms).
			// An uncorrupted TLB is observationally transparent — the
			// restore path already relies on that — so clearing it here
			// makes the flipped entry's fate, and hence the outcome,
			// independent of K.
			m.HV.Mem.InvalidateTLB()
		}
		// Uncore sites have no consume/overwrite automaton: the flip lands
		// in machine state outside the executing instruction stream, and
		// whether it ever matters shows up only in the golden differential.
		c.PreStep = func(step, pc uint64) {
			if step < plan.Step {
				return
			}
			f.step = step
			f.symbol = m.HV.SymbolFor(pc)
			f.activated = applyUncoreFault(m, plan)
			c.PreStep = nil
		}
	} else {
		// The hook disarms itself (PreStep = nil) the moment the flip's fate is
		// decided — activated or overwritten — so the CPU drops from the traced
		// loop to the untraced fast loop for the remainder of the run instead of
		// paying the hook on every post-injection instruction.
		c.PreStep = func(step, pc uint64) {
			if !injected {
				if step >= plan.Step {
					injected = true
					f.step = step
					c.Regs[plan.Reg] ^= 1 << plan.Bit
					f.symbol = m.HV.SymbolFor(pc)
					if plan.Reg == isa.RIP {
						// A flipped instruction pointer is consumed by the very
						// next fetch.
						f.activated = true
						c.PreStep = nil
					}
				}
				return
			}
			if f.activated || overwritten {
				c.PreStep = nil
				return
			}
			in, ok := m.HV.Seg.InstrAt(pc)
			if !ok {
				// Fetch about to fault; control flow already diverged.
				f.activated = true
				f.step = step
				c.PreStep = nil
				return
			}
			if in.ReadsReg(plan.Reg) {
				f.activated = true
				f.step = step
				f.consumerOp = in.Op
				f.haveConsumer = true
				c.PreStep = nil
				return
			}
			if in.WritesReg(plan.Reg) {
				overwritten = true
				c.PreStep = nil
			}
		}
	}
	act, err := m.Step()
	c.PreStep = nil
	if err != nil {
		return sim.Activation{}, flipFate{}, fmt.Errorf("inject: injected activation: %w", err)
	}
	return act, f, nil
}

// applyUncoreFault applies a non-register-site flip to the machine and
// reports whether the fault took hold (a D-TLB flip into an empty slot
// has nothing to corrupt, exactly like a register flip that is
// overwritten before use). Out-of-range indices and CPUs wrap into their
// valid spaces so every decodable plan is executable.
func applyUncoreFault(m *sim.Machine, plan Plan) bool {
	cpuIdx := plan.VCPU
	if cpuIdx < 0 || cpuIdx >= m.HV.NumVCPUs() {
		cpuIdx = 0
	}
	switch plan.Site {
	case SiteTLB:
		return m.HV.Mem.FlipTLBTag(int(plan.Index)%mem.TLBSlots, plan.Bit)
	case SiteAPIC:
		addr := hv.APICAddr(cpuIdx)
		v, err := m.HV.Mem.Peek(addr)
		if err != nil {
			return false
		}
		return m.HV.Mem.Poke(addr, v^(1<<(plan.Bit&63))) == nil
	case SitePMU:
		e := perf.Event(int(plan.Index) % int(perf.NumEvents))
		m.HV.CPUs[cpuIdx].PMU.Flip(e, plan.Bit)
		return true
	case SitePT:
		addr := hv.PageTableAddr() + uint64(int(plan.Index)%hv.PageTableWords)*8
		v, err := m.HV.Mem.Peek(addr)
		if err != nil {
			return false
		}
		return m.HV.Mem.Poke(addr, v^(1<<(plan.Bit&63))) == nil
	}
	return false
}

// foldVerdict folds one activation of the injection run into the
// outcome's detection fields — the single attribution point for the
// injected activation, the suffix activations, and both recovery modes.
// The first positive verdict wins. latency is the instruction distance
// from the fault's first consumption to this activation's stop point;
// it is recorded for every detection, including recovered ones (whose
// detection happened during the rolled-back first execution at or
// before that distance).
func (o *Outcome) foldVerdict(index int, act *sim.Activation, latency uint64) {
	if o.Detected != core.TechNone {
		return
	}
	switch {
	case act.Outcome.Result.Stop == cpu.StopVMEntry && act.Recovered:
		// The detection fired, live recovery re-executed the activation
		// from the snapshot, and the re-execution completed; the rest of
		// the run shows whether recovery worked.
		o.Detected = act.FirstDetection
		o.DetectedAt = index
		o.Recovered = true
		o.Latency = latency
	case act.Outcome.Technique != core.TechNone:
		o.Detected = act.Outcome.Technique
		o.DetectedAt = index
		o.Latency = latency
	}
}

// undetectedCause attributes an undetected manifested fault to a Table II
// class.
func (r *Runner) undetectedCause(o *Outcome, haveConsumer bool, consumerOp isa.Op) Cause {
	if !o.Manifested || o.Detected != core.TechNone {
		return CauseNone
	}
	if o.FeaturesDiffer {
		return CauseMisclassified
	}
	// The register-specific attributions below apply only to register-site
	// plans: an uncore plan's Reg field is zero, which would otherwise
	// alias RAX.
	reg := o.Plan.Site.Register()
	if o.DiffKind == guest.DiffTime ||
		(reg && timeSymbols[o.Symbol] && (o.Plan.Reg == isa.RAX || o.Plan.Reg == isa.RDX)) {
		return CauseTimeValue
	}
	// A corrupted return value is plain data corruption even when the flip
	// lands in the return path.
	if o.DiffKind == guest.DiffRetVal {
		return CauseOtherValue
	}
	if reg && (stackSymbols[o.Symbol] || o.Plan.Reg == isa.RSP ||
		(haveConsumer && isStackConsumer(consumerOp))) {
		return CauseStackValue
	}
	return CauseOtherValue
}

// sub is a saturating subtraction (injection accounting never goes
// negative even when the stop point precedes the nominal injection step).
func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
