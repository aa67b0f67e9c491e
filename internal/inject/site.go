package inject

// Typed fault-site taxonomy. The seed engine could only flip bits in the
// architectural register file; the SMP machine opens the injection space
// to uncore state per Cho et al. (Understanding Soft Errors in Uncore
// Components): D-TLB entries, pending-interrupt/APIC words, PMU counters,
// and page-table words. A Plan addresses {vcpu, site class, index, bit}
// instead of a bare register; the zero value (SiteGPR, vcpu 0, index 0)
// is exactly the legacy plan, so old WAL records and wire frames decode
// unchanged.

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Site classifies the machine state a fault flips.
type Site uint8

const (
	// SiteGPR: a general-purpose register (the seed injection space).
	SiteGPR Site = iota
	// SiteCtl: the RIP/RFLAGS control registers — drawn from the same
	// legacy "gpr" target class, recorded as their own site class.
	SiteCtl
	// SiteTLB: a D-TLB entry tag (Plan.Index is the slot).
	SiteTLB
	// SiteAPIC: a per-CPU pending-interrupt/APIC word (Plan.VCPU is the
	// CPU whose word is struck).
	SiteAPIC
	// SitePMU: a performance counter (Plan.VCPU selects the CPU bank,
	// Plan.Index the event counter).
	SitePMU
	// SitePT: a shadow page-table word (Plan.Index is the entry).
	SitePT
	// NumSites bounds the enum.
	NumSites
)

// siteNames names every site class; the exhaustiveness test asserts the
// table covers the enum.
var siteNames = [NumSites]string{"gpr", "ctl", "dtlb", "apic", "pmu", "pgtable"}

// String names the site class.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Register reports whether the site is in the architectural register file
// (the legacy injection space the pruners' soundness argument covers).
func (s Site) Register() bool { return s <= SiteCtl }

// MarshalText renders the site by name, so JSON tallies and reports key
// per-site rows readably.
func (s Site) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a site name.
func (s *Site) UnmarshalText(text []byte) error {
	for i, name := range siteNames {
		if name == string(text) {
			*s = Site(i)
			return nil
		}
	}
	return fmt.Errorf("inject: unknown site %q", text)
}

// Sites returns every site class in declaration order.
func Sites() []Site {
	out := make([]Site, NumSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

// targetSites maps the selectable target-class names (the -targets flag,
// CampaignSpec.Targets) to the site classes plans drawn from them carry.
// "gpr" is the whole legacy register space: 16 GPRs plus RIP/RFLAGS, so
// it yields both SiteGPR and SiteCtl plans. "ctl" is deliberately not
// independently selectable — the legacy draw is one uniform space and
// splitting it would change the seed plan distribution.
var targetSites = map[string][]Site{
	"gpr":     {SiteGPR, SiteCtl},
	"dtlb":    {SiteTLB},
	"apic":    {SiteAPIC},
	"pmu":     {SitePMU},
	"pgtable": {SitePT},
}

// TargetNames returns the selectable target-class names, sorted.
func TargetNames() []string {
	names := make([]string, 0, len(targetSites))
	for name := range targetSites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NormalizeTargets canonicalizes a target list: trimmed, lower-cased,
// sorted, deduplicated, defaulting to the legacy register space when
// empty. The normalized list is part of a campaign's identity — every
// shard and resumed run must derive the same plans from it.
func NormalizeTargets(targets []string) []string {
	seen := map[string]bool{}
	out := make([]string, 0, len(targets))
	for _, t := range targets {
		t = strings.ToLower(strings.TrimSpace(t))
		if t == "" || seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	if len(out) == 0 {
		return []string{"gpr"}
	}
	sort.Strings(out)
	return out
}

// ValidateTargets rejects unknown target-class names and combinations the
// machine cannot honor: APIC injection needs an SMP machine, because on a
// single CPU cross-domain events never travel through the APIC words and
// every flip would be trivially masked. CLI flags and the campaign
// service both surface this error verbatim (400 on the HTTP side).
func ValidateTargets(targets []string, vcpus int) error {
	for _, t := range NormalizeTargets(targets) {
		if _, ok := targetSites[t]; !ok {
			return fmt.Errorf("inject: unknown injection target %q (available: %s)",
				t, strings.Join(TargetNames(), ", "))
		}
		if t == "apic" && vcpus < 2 {
			return fmt.Errorf("inject: target \"apic\" requires an SMP machine (vcpus >= 2)")
		}
	}
	return nil
}

// ErrSlowPathDTLB refuses a campaign that draws D-TLB plans on the
// reference stepper. SlowPath runs memory uncached, so the D-TLB fault
// site does not exist there: every dtlb flip would land in an entry no
// access reads, and the campaign would silently measure a different
// fault space.
var ErrSlowPathDTLB = errors.New(`inject: SlowPath runs without a D-TLB; target "dtlb" cannot be injected on it`)

// validate checks a normalized campaign's targets against its machine:
// ValidateTargets, plus ErrSlowPathDTLB.
func (cfg CampaignConfig) validate() error {
	if err := ValidateTargets(cfg.Targets, cfg.VCPUs); err != nil {
		return err
	}
	if cfg.SlowPath && slices.Contains(cfg.Targets, "dtlb") {
		return ErrSlowPathDTLB
	}
	return nil
}

// registerTargetsOnly reports whether every target is the legacy register
// space — the condition under which RandomPlan keeps the seed engine's
// byte-for-byte rng draw sequence.
func registerTargetsOnly(targets []string) bool {
	for _, t := range targets {
		if t != "gpr" {
			return false
		}
	}
	return true
}
