#!/bin/sh
# Tier-1 verification: formatting, build, vet, full test suite, a
# single-iteration pass over every benchmark (so the perf harness itself
# cannot rot), and race-detector passes over the packages with real
# concurrency (the campaign engine's workers share the read-only
# checkpoint pool and the linked text segment; the coordinator's worker
# sessions and the result store take concurrent records; the CPU core is
# what every worker runs; the memory package's lazy checkpoint page-hash
# tables are published under sync.Once to concurrent folders).
set -eux

cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" "$fmt" >&2
    exit 1
fi

go build ./...
go vet ./...
go test ./...
go test -run '^$' -bench . -benchtime 1x ./...
# Translator differential fuzzing: a short deterministic-corpus run plus
# a brief live-fuzz burst holding the threaded stepper to the reference
# stepper, so translator changes cannot land without surviving randomized
# programs.
go test -run FuzzThreadedVsSlow ./internal/cpu/
go test -run '^$' -fuzz FuzzThreadedVsSlow -fuzztime 15s ./internal/cpu/
# Wire-protocol fuzzing: the deterministic corpus plus a live burst over
# the frame splitter / record decoder / message decoder, so codec changes
# cannot land without surviving adversarial bytes (the fleet coordinator
# feeds these decoders straight off the network).
go test -run FuzzWireDecode ./internal/wire/
go test -run '^$' -fuzz FuzzWireDecode -fuzztime 15s ./internal/wire/
# Tree-codec fuzzing: the transition model reaches workers as bytes in
# the Welcome, so its decoder takes hostile input too — every input must
# either error or decode to a tree that re-encodes byte-identically and
# classifies without panicking.
go test -run FuzzDecodeTree ./internal/ml/
go test -run '^$' -fuzz FuzzDecodeTree -fuzztime 15s ./internal/ml/
# Site-codec fuzzing: the record codec's trailing site block must
# round-trip every in-range {vcpu, site-class, index} triple and reject
# out-of-range or truncated blocks without panicking.
go test -run FuzzSiteCodec ./internal/wire/
go test -run '^$' -fuzz FuzzSiteCodec -fuzztime 15s ./internal/wire/
# Undo-journal fuzzing: live recovery's per-activation rewind point must
# restore exactly the flat-snapshot image, refuse stale marks, leave
# checkpoint images alone, and never arm the D-TLB page fast path over a
# page not yet written since the last boundary.
go test -run FuzzUndoJournal ./internal/mem/
go test -run '^$' -fuzz FuzzUndoJournal -fuzztime 15s ./internal/mem/
go test -race ./internal/cpu/ ./internal/inject/ ./internal/mem/ ./internal/sim/ ./internal/store/ ./internal/server/ ./internal/progress/ ./internal/wire/
# Session-kill burst: whether a killed session's queued ShardDone reaches
# the ingest goroutine before or after the kill depends on timing, so one
# race pass cannot be trusted to find an ordering bug there.
go test -race -count=20 -run 'TestEngineKillWorkerBitIdentical' ./internal/server/
# Recovery differential pass: recover=off campaigns must stay
# bit-identical to the engine-less baseline, microreboot campaigns must
# be deterministic (including under the race detector's schedule
# perturbation), and the outcome-class mix must stay honest (nonzero
# full AND failed). Focused runs so a recovery regression names itself.
# The pinned digests are the bit-identity oracle for the restore, policy
# and Section VI snapshot/restore path; stale snapshots must be refused.
go test -run 'Recovery|Microreboot|Reinit' ./internal/inject/ ./internal/hv/ ./internal/store/
go test -run 'TestRecoveryCampaignPinnedDigests' ./internal/experiments/
go test ./internal/recovery/
go test -race -run 'Microreboot' ./internal/inject/
# SMP bit-identity burst: the legacy single-CPU register campaign must
# stay byte-identical to the explicit VCPUs=1/Targets=gpr spelling, the
# 4-vCPU multi-site campaign and the schedule trace must be deterministic
# (including under the race detector's schedule perturbation), and
# kill/resume must reproduce the per-site coverage rows exactly.
go test -run 'TestLegacyCampaignBitIdenticalToExplicitDefaults|TestSMPMultiSiteCampaignDeterministic|TestPruneFiresForUncoreTargets|TestPruneUncoreRecoveryBitIdentical' ./internal/inject/
go test -run 'TestScheduleTrace|TestSMPGoldenRunDeterministic' ./internal/sim/
go test -run 'TestResumeSMPMultiSiteCampaignBitIdentical' ./internal/store/
go test -race -run 'TestSMPMultiSiteCampaignDeterministic' ./internal/inject/
# Dataset burst: the signature-only collection walk must label every
# plan exactly as full RunOne outcomes do (pruned and unpruned), and the
# QuickScale datasets and model must match their pinned digests.
go test -run 'TestDatasetSignatureMatchesRunOne|TestTrainQuickScalePinnedDigests|TestCollectDatasetLabels|TestFastPathDatasetBitIdentical' ./internal/inject/ ./internal/experiments/
