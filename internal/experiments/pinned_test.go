package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"xentry/internal/ml"
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
