package core

import (
	"testing"

	"xentry/internal/cpu"
	"xentry/internal/detect"
	"xentry/internal/hv"
	"xentry/internal/isa"
	"xentry/internal/ml"
)

func newSentry(t *testing.T, opts Options) *Sentry {
	t.Helper()
	h, err := hv.New(3)
	if err != nil {
		t.Fatal(err)
	}
	return New(h, opts)
}

func exec(t *testing.T, s *Sentry, reason hv.ExitReason, dom int, rnd uint64) Outcome {
	t.Helper()
	args, err := hv.PrepareGuestInput(s.HV, dom, reason, rnd)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Execute(&hv.ExitEvent{Reason: reason, Dom: dom, Args: args}, hv.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFaultFreeExecutionUndetected(t *testing.T) {
	s := newSentry(t, FullDetection())
	for r := hv.ExitReason(0); r < hv.NumExitReasons; r++ {
		out := exec(t, s, r, 0, uint64(r)*17)
		if out.Technique != TechNone {
			t.Errorf("%v: fault-free run flagged by %v", r, out.Technique)
		}
		if out.Hang {
			t.Errorf("%v: fault-free run hung", r)
		}
		if !out.HasFeatures {
			t.Errorf("%v: no features collected", r)
		}
		if out.Features[ml.FeatVMER] != uint64(r) {
			t.Errorf("%v: VMER = %d", r, out.Features[ml.FeatVMER])
		}
		if out.Features[ml.FeatRT] == 0 {
			t.Errorf("%v: RT = 0", r)
		}
	}
	if st := s.Stats(); st.Activations != uint64(hv.NumExitReasons) ||
		st.HWException+st.Assertion+st.VMTransition+st.Hangs != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDisabledSentryIsUnmodifiedXen(t *testing.T) {
	s := newSentry(t, Options{})
	out := exec(t, s, hv.HCMemoryOp, 0, 5)
	if out.ShimCycles != 0 {
		t.Errorf("shim cycles = %d, want 0 when disabled", out.ShimCycles)
	}
	if out.HasFeatures {
		t.Error("features collected with transition detection off")
	}
	if out.Technique != TechNone {
		t.Errorf("technique = %v", out.Technique)
	}
}

func TestHWExceptionDetection(t *testing.T) {
	s := newSentry(t, FullDetection())
	// Flip a bit in a load base register mid-handler → #PF.
	flipped := false
	s.HV.CPU.PreStep = func(step, pc uint64) {
		in, ok := s.HV.Seg.InstrAt(pc)
		if ok && in.Op == isa.OpLoad && in.Base == isa.R9 && !flipped {
			flipped = true
			s.HV.CPU.Regs[isa.R9] ^= 1 << 45
		}
	}
	defer func() { s.HV.CPU.PreStep = nil }()
	args, _ := hv.PrepareGuestInput(s.HV, 0, hv.HCMemoryOp, 3)
	out, err := s.Execute(&hv.ExitEvent{Reason: hv.HCMemoryOp, Dom: 0, Args: args}, hv.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if out.Technique != TechHWException {
		t.Fatalf("technique = %v (stop=%v), want hw-exception", out.Technique, out.Result.Stop)
	}
	if s.Stats().HWException != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

func TestHWExceptionNotDetectedWithoutRuntimeDetection(t *testing.T) {
	// Without runtime detection a fatal exception is a plain hypervisor
	// crash, not a detection.
	s := newSentry(t, Options{TransitionDetection: true})
	flipped := false
	s.HV.CPU.PreStep = func(step, pc uint64) {
		in, ok := s.HV.Seg.InstrAt(pc)
		if ok && in.Op == isa.OpLoad && in.Base == isa.R9 && !flipped {
			flipped = true
			s.HV.CPU.Regs[isa.R9] ^= 1 << 45
		}
	}
	defer func() { s.HV.CPU.PreStep = nil }()
	args, _ := hv.PrepareGuestInput(s.HV, 0, hv.HCMemoryOp, 3)
	out, err := s.Execute(&hv.ExitEvent{Reason: hv.HCMemoryOp, Dom: 0, Args: args}, hv.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if out.Technique != TechNone {
		t.Errorf("technique = %v, want none", out.Technique)
	}
	if out.Result.Stop != cpu.StopException {
		t.Errorf("stop = %v", out.Result.Stop)
	}
}

func TestAssertionDetection(t *testing.T) {
	s := newSentry(t, FullDetection())
	fired := false
	s.HV.CPU.PreStep = func(step, pc uint64) {
		in, ok := s.HV.Seg.InstrAt(pc)
		if ok && in.Op == isa.OpAssertLe && !fired {
			fired = true
			s.HV.CPU.Regs[in.Dst] |= 1 << 30
		}
	}
	defer func() { s.HV.CPU.PreStep = nil }()
	args, _ := hv.PrepareGuestInput(s.HV, 0, hv.HCSetTrapTable, 9)
	out, err := s.Execute(&hv.ExitEvent{Reason: hv.HCSetTrapTable, Dom: 0, Args: args}, hv.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if out.Technique != TechAssertion {
		t.Fatalf("technique = %v, want sw-assertion", out.Technique)
	}
}

func TestVMTransitionDetectionWithModel(t *testing.T) {
	s := newSentry(t, FullDetection())
	// Train a trivial model from fault-free signatures of one reason, then
	// make anything with inflated RT classify as incorrect.
	var train ml.Dataset
	for rnd := uint64(0); rnd < 40; rnd++ {
		out := exec(t, s, hv.HCMemoryOp, 0, rnd)
		f := out.Features
		train = append(train, ml.Sample{Features: f, Correct: true})
		f[ml.FeatRT] += 400 // synthetic incorrect signature
		train = append(train, ml.Sample{Features: f, Correct: false})
	}
	tree, err := ml.Train(train, ml.DefaultDecisionTree())
	if err != nil {
		t.Fatal(err)
	}
	s.SetModel(tree)
	s.ResetStats()

	// Fault-free run stays clean.
	out := exec(t, s, hv.HCMemoryOp, 0, 7)
	if out.Technique != TechNone {
		t.Fatalf("fault-free flagged: %v", out.Technique)
	}

	// A flipped loop counter lengthens the dynamic trace (paper Fig. 5a)
	// and must be flagged at VM entry.
	flipped := false
	s.HV.CPU.PreStep = func(step, pc uint64) {
		in, ok := s.HV.Seg.InstrAt(pc)
		if ok && in.Op == isa.OpRepMovs && !flipped {
			flipped = true
			s.HV.CPU.Regs[isa.RCX] += 700
		}
	}
	defer func() { s.HV.CPU.PreStep = nil }()
	args, _ := hv.PrepareGuestInput(s.HV, 0, hv.HCMemoryOp, 7)
	out, err = s.Execute(&hv.ExitEvent{Reason: hv.HCMemoryOp, Dom: 0, Args: args}, hv.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if out.Technique != TechVMTransition {
		t.Fatalf("technique = %v (stop=%v, RT=%d), want vm-transition",
			out.Technique, out.Result.Stop, out.Features[ml.FeatRT])
	}
	if s.Stats().VMTransition != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

func TestShimCostAccounting(t *testing.T) {
	s := newSentry(t, FullDetection())
	out := exec(t, s, hv.HCXenVersion, 0, 1)
	want := uint64(ShimExitCost + ShimEntryCost)
	if out.ShimCycles != want {
		t.Errorf("shim cycles = %d, want %d (no model installed)", out.ShimCycles, want)
	}

	// With a model, classification comparisons add cost.
	var train ml.Dataset
	f := out.Features
	train = append(train, ml.Sample{Features: f, Correct: true})
	f[ml.FeatRT] += 100
	train = append(train, ml.Sample{Features: f, Correct: false})
	tree, err := ml.Train(train, ml.Config{MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetModel(tree)
	out = exec(t, s, hv.HCXenVersion, 0, 1)
	if out.ShimCycles <= want {
		t.Errorf("shim cycles = %d, want > %d with model", out.ShimCycles, want)
	}
}

func TestRuntimeOnlyHasNoShimCost(t *testing.T) {
	s := newSentry(t, Options{RuntimeDetection: true})
	out := exec(t, s, hv.HCMemoryOp, 0, 2)
	if out.ShimCycles != 0 {
		t.Errorf("runtime-only shim cycles = %d, want 0", out.ShimCycles)
	}
	if out.HasFeatures {
		t.Error("runtime-only run collected features")
	}
}

func TestTechniqueStrings(t *testing.T) {
	for _, tech := range []Technique{TechNone, TechHWException, TechAssertion, TechVMTransition} {
		if tech.String() == "" {
			t.Errorf("technique %d unnamed", tech)
		}
	}
}

// TestFatalExceptionFilter checks the exception filter the sentry's
// runtime detector applies.
func TestFatalExceptionFilter(t *testing.T) {
	if detect.FatalException(nil) {
		t.Error("nil exception cannot be fatal")
	}
	if !detect.FatalException(&cpu.Exception{Vector: cpu.VecPF}) {
		t.Error("surfacing #PF must be fatal (benign ones are fixed up)")
	}
}

func TestWatchdogCatchesHangs(t *testing.T) {
	// A corrupted loop counter that exhausts the budget must be reported
	// as a hardware-exception detection (the NMI watchdog) when runtime
	// detection is on, and as an undetected hang otherwise.
	run := func(opts Options) Outcome {
		s := newSentry(t, opts)
		flipped := false
		s.HV.CPU.PreStep = func(step, pc uint64) {
			in, ok := s.HV.Seg.InstrAt(pc)
			if ok && in.Op == isa.OpLoop && !flipped {
				flipped = true
				s.HV.CPU.Regs[isa.RCX] |= 1 << 50
			}
		}
		defer func() { s.HV.CPU.PreStep = nil }()
		args, _ := hv.PrepareGuestInput(s.HV, 0, hv.HCSetTimerOp, 3)
		out, err := s.Execute(&hv.ExitEvent{Reason: hv.HCSetTimerOp, Dom: 0, Args: args}, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	with := run(FullDetection())
	if !with.Hang || with.Technique != TechHWException {
		t.Errorf("with runtime detection: hang=%v technique=%v", with.Hang, with.Technique)
	}
	without := run(Options{TransitionDetection: true})
	if !without.Hang || without.Technique != TechNone {
		t.Errorf("without runtime detection: hang=%v technique=%v", without.Hang, without.Technique)
	}
}
