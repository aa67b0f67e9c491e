package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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
			got, out, rep := pinnedCampaign(t, model, tc.mutate, tc.recover)
			attempts := 0
			if rep.Recovery != nil {
				attempts = rep.Recovery.Attempts
			}
			t.Logf("%d injections, %d recovery attempts, %d recoveries", rep.Injections, attempts, out.Total.Recovered)
			if got != tc.want {
				t.Errorf("report sha256 = %s, pinned %s", got, tc.want)
			}
		})
	}
}

// pinnedCampaign runs the pinned-digest harness: the QuickScale settings
// with 60 injections per benchmark and 2 workers, adjusted by mutate,
// with model installed. It returns the SHA-256 of the encoded report
// next to the campaign result and the report.
func pinnedCampaign(t *testing.T, model *ml.Tree, mutate func(*Scale), recover bool) (string, *inject.CampaignResult, *CampaignReport) {
	t.Helper()
	sc := QuickScale()
	sc.CampaignInjections = 60
	sc.Workers = 2
	mutate(&sc)
	cfg, err := CampaignConfigFor(sc, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recover = recover
	out, err := inject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewCampaignReport(out, workload.Names())
	data, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), out, rep
}

// Report digests of a campaign matrix, recorded where the default
// stepper and detection pipeline agreed cell for cell with the retired
// legacy-detection and switch-dispatch oracles, and (outside dtlb cells)
// with the slow reference stepper. They stand in for those differentials:
// a change to the interpreter or the detection pipeline that shifts any
// cell fails here.
var pinnedMatrixReportSHA = map[string]string{
	"seed7/1vcpu/gpr":       "d1ed1c5a8341fcd03687f0e139b69109e0f2a998bf57d8e4cb02a35cee59bbcc",
	"seed7/4vcpu/gpr":       "60ca7d1bbfe3bde89bc7fae017f9f641953fdc4ee0839b9a648cff82d13fcf0d",
	"seed7/4vcpu/uncore":    "c02e48f17fc1c42efb2efc799b06391771ac31b6c91c9e58c8af13ec26b7efc5",
	"seed7/4vcpu/dtlb":      "0816a6b1ca9f52c64c5df2d539c5da45adb6f2d4bfc8c742e14f503442292962",
	"seed7/4vcpu/all":       "585ed8bf4fbdaf8b7ac4935602094948ed3a1e766ba4f159f944964cafdade8c",
	"seed1234/1vcpu/gpr":    "066db2be3013f0e2679eb754ea43a9aad97763b6d3a5841316a384a4e499fda0",
	"seed1234/4vcpu/gpr":    "62a1142135bdf1b061d325a403f99712211cb38a88730e9d8fc62eee1ef11d79",
	"seed1234/4vcpu/uncore": "3aa0d0b2ae206268ad765f37c16a311d521d498dae67848c088d0a5a4b22858f",
	"seed1234/4vcpu/dtlb":   "3088cdf47b3a1b0759112e2fb0e7740a1864f6cef3f8f820b49a75576f352b10",
	"seed1234/4vcpu/all":    "9ecebb5a267ae76fc11291aec0de49f84d2f411b1cbbb909f1e55adb40961628",
}

// TestCampaignMatrixPinnedDigests pins the report bytes of seeds 7 and
// 1234 across 1-vCPU gpr, 4-vCPU gpr, 4-vCPU gpr plus the uncore sites
// (apic, pmu, pgtable), 4-vCPU dtlb, and 4-vCPU over all five site
// classes, each at a small scale with the QuickScale model installed.
func TestCampaignMatrixPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and runs ten campaigns")
	}
	res, err := Train(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	model := res.Best()
	cells := []struct {
		name    string
		vcpus   int
		targets []string
	}{
		{"1vcpu/gpr", 1, []string{"gpr"}},
		{"4vcpu/gpr", 4, []string{"gpr"}},
		{"4vcpu/uncore", 4, []string{"gpr", "apic", "pmu", "pgtable"}},
		{"4vcpu/dtlb", 4, []string{"dtlb"}},
		{"4vcpu/all", 4, []string{"gpr", "dtlb", "apic", "pmu", "pgtable"}},
	}
	for _, seed := range []int64{7, 1234} {
		for _, c := range cells {
			name := fmt.Sprintf("seed%d/%s", seed, c.name)
			t.Run(name, func(t *testing.T) {
				got, _, _ := pinnedCampaign(t, model, func(sc *Scale) {
					sc.Seed = seed
					sc.VCPUs = c.vcpus
					sc.Targets = c.targets
				}, false)
				if want := pinnedMatrixReportSHA[name]; got != want {
					t.Errorf("report sha256 = %s, pinned %s", got, want)
				}
			})
		}
	}
}
