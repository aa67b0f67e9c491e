package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"xentry/internal/inject"
	"xentry/internal/ml"
	"xentry/internal/workload"
)

// Digests of the QuickScale training run, recorded before training-data
// collection was rewritten as a signature-only walk. Every other dataset
// test compares one collection path against another; these constants do
// not move with the code, so a change that shifts both sides of such a
// differential still fails here.
const (
	pinnedTrainSHA = "1ec4613f0b720986a37b37bce0e833aac06dcd13c27dde5f3d2e6795ac44e123"
	pinnedTestSHA  = "9c845d9c05e78174c3561b97b50aeda349d57cdff7752b43f212b236f9c90171"
	pinnedModelSHA = "376ff363724500356ca1ab033c5aa04f70f1a26d3e3d44cb7587474e0d898777"
)

// datasetDigest hashes a dataset's canonical encoding: per sample, the
// five features as little-endian uint64s then one label byte.
func datasetDigest(d ml.Dataset) string {
	h := sha256.New()
	var buf [ml.NumFeatures*8 + 1]byte
	for _, s := range d {
		for f, v := range s.Features {
			binary.LittleEndian.PutUint64(buf[f*8:], v)
		}
		buf[ml.NumFeatures*8] = 0
		if s.Correct {
			buf[ml.NumFeatures*8] = 1
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainQuickScalePinnedDigests pins the QuickScale train and test
// datasets and the model experiments.Train selects from them.
func TestTrainQuickScalePinnedDigests(t *testing.T) {
	sc := QuickScale()
	trainSet, testSet, err := collectSplit(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := datasetDigest(trainSet); got != pinnedTrainSHA {
		t.Errorf("train dataset (%d samples) sha256 = %s, pinned %s", len(trainSet), got, pinnedTrainSHA)
	}
	if got := datasetDigest(testSet); got != pinnedTestSHA {
		t.Errorf("test dataset (%d samples) sha256 = %s, pinned %s", len(testSet), got, pinnedTestSHA)
	}
	res, err := Train(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainSamples != len(trainSet) || res.TestSamples != len(testSet) {
		t.Fatalf("Train saw %d/%d samples, collectSplit %d/%d",
			res.TrainSamples, res.TestSamples, len(trainSet), len(testSet))
	}
	sum, err := res.Best().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(sum[:]); got != pinnedModelSHA {
		t.Errorf("model sha256 = %s, pinned %s", got, pinnedModelSHA)
	}
}

// Report digests of three small recovery-armed campaigns, recorded before
// the per-step recovery snapshot was rewritten as an undo journal. The
// recovery differentials compare one engine configuration against
// another; these constants do not move with the code, so a change to the
// snapshot/restore machinery that shifts every side alike still fails
// here.
const (
	pinnedRestoreReportSHA = "f8a7b11279b82f7cf1894ceaa35188881a38ee9f36e0587cb3cbc09d8edb9bd6"
	pinnedPolicyReportSHA  = "573ba587a80efb6bf39a0accfa5399759acce5ffb928a65f22e2e13bf68b447e"
	pinnedRecoverReportSHA = "e187be8ae8af54cf39a14a33b718a268c136cb1f696acda616cd24526466b6e6"
)

// TestRecoveryCampaignPinnedDigests pins the report bytes of the restore
// strategy at 1 vCPU, the default policy at 4 vCPUs over all five site
// classes, and the Section VI Runner.Recover path, each at a small scale
// with the QuickScale model installed.
func TestRecoveryCampaignPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and runs three campaigns")
	}
	res, err := Train(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	model := res.Best()
	cases := []struct {
		name    string
		mutate  func(*Scale)
		recover bool
		want    string
	}{
		{"restore/1vcpu", func(sc *Scale) { sc.Recovery = "restore" }, false, pinnedRestoreReportSHA},
		{"policy/4vcpu/all-sites", func(sc *Scale) {
			sc.Recovery = "policy"
			sc.VCPUs = 4
			sc.Targets = []string{"gpr", "dtlb", "apic", "pmu", "pgtable"}
		}, false, pinnedPolicyReportSHA},
		{"section-vi", func(*Scale) {}, true, pinnedRecoverReportSHA},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := QuickScale()
			sc.CampaignInjections = 60
			sc.Workers = 2
			tc.mutate(&sc)
			cfg, err := CampaignConfigFor(sc, model, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Recover = tc.recover
			out, err := inject.RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := NewCampaignReport(out, workload.Names())
			data, err := rep.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			attempts := 0
			if rep.Recovery != nil {
				attempts = rep.Recovery.Attempts
			}
			t.Logf("%d injections, %d recovery attempts, %d recoveries", rep.Injections, attempts, out.Total.Recovered)
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("report sha256 = %s, pinned %s", got, tc.want)
			}
		})
	}
}
