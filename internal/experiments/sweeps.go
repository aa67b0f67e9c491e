package experiments

import (
	"fmt"
	"strings"

	"xentry/internal/ml"
	"xentry/internal/stats"
)

// The paper's Section III-B ends with: "Due to the space limit, we omit the
// evaluation results and discussions on various features, tree depth, and
// training set size." This file supplies those three studies, plus the
// generative-model baseline the paper argues against (naive Bayes, in the
// spirit of its reference [27]).

// SweepResult bundles the four model studies.
type SweepResult struct {
	// FeatureAblation: coverage/accuracy with each feature removed.
	FeatureAblation []FeatureAblationRow
	// DepthSweep: model quality and classification cost per depth bound.
	DepthSweep []DepthRow
	// SizeSweep: model quality per training-set fraction.
	SizeSweep []SizeRow
	// Baselines: tree vs naive Bayes on the same split.
	TreeEval, BayesEval ml.Confusion
	BayesTrained        bool
}

// FeatureAblationRow is the result of dropping one feature.
type FeatureAblationRow struct {
	Dropped  string // "none" for the full model
	Eval     ml.Confusion
	TreeSize int
}

// DepthRow is the result of one depth bound.
type DepthRow struct {
	MaxDepth    int
	Eval        ml.Confusion
	MeanCompare float64 // mean comparisons per classification
}

// SizeRow is the result of one training-set fraction.
type SizeRow struct {
	Fraction float64
	Samples  int
	Eval     ml.Confusion
}

// Sweeps collects one train/test split and runs all four studies on it.
func Sweeps(sc Scale) (*SweepResult, error) {
	trainSet, testSet, err := collectSplit(sc)
	if err != nil {
		return nil, err
	}

	res := &SweepResult{}

	// Feature ablation: mask one feature at a time (zeroing it removes its
	// discriminative power without changing the vector shape).
	for f := -1; f < ml.NumFeatures; f++ {
		name := "none"
		maskedTrain, maskedTest := trainSet, testSet
		if f >= 0 {
			name = ml.FeatureName(f)
			maskedTrain = maskFeature(trainSet, f)
			maskedTest = maskFeature(testSet, f)
		}
		tree, err := ml.Train(maskedTrain, ml.DefaultRandomTree(sc.Seed))
		if err != nil {
			return nil, err
		}
		res.FeatureAblation = append(res.FeatureAblation, FeatureAblationRow{
			Dropped:  name,
			Eval:     ml.Evaluate(tree, maskedTest),
			TreeSize: tree.Size(),
		})
	}

	// Depth sweep.
	for _, depth := range []int{2, 4, 6, 8, 12, 16, 24} {
		tree, err := ml.Train(trainSet, ml.Config{
			MaxDepth: depth, MinLeaf: 1,
			RandomFeatures: ml.PaperRandomFeatures, Seed: sc.Seed,
		})
		if err != nil {
			return nil, err
		}
		var cmp int
		for _, s := range testSet {
			_, c := tree.Classify(s.Features)
			cmp += c
		}
		res.DepthSweep = append(res.DepthSweep, DepthRow{
			MaxDepth:    depth,
			Eval:        ml.Evaluate(tree, testSet),
			MeanCompare: float64(cmp) / float64(len(testSet)),
		})
	}

	// Training-set size sweep (prefix fractions keep class mixing).
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		n := int(frac * float64(len(trainSet)))
		if n < 10 {
			continue
		}
		sub := interleave(trainSet)[:n]
		tree, err := ml.Train(sub, ml.DefaultRandomTree(sc.Seed))
		if err != nil {
			return nil, err
		}
		res.SizeSweep = append(res.SizeSweep, SizeRow{
			Fraction: frac, Samples: n, Eval: ml.Evaluate(tree, testSet),
		})
	}

	// Generative baseline.
	tree, err := ml.Train(trainSet, ml.DefaultRandomTree(sc.Seed))
	if err != nil {
		return nil, err
	}
	res.TreeEval = ml.Evaluate(tree, testSet)
	if nb, err := ml.TrainNaiveBayes(trainSet); err == nil {
		res.BayesEval = ml.Evaluate(nb, testSet)
		res.BayesTrained = true
	}
	return res, nil
}

// maskFeature zeroes feature f in a copy of the dataset.
func maskFeature(d ml.Dataset, f int) ml.Dataset {
	out := make(ml.Dataset, len(d))
	for i, s := range d {
		s.Features[f] = 0
		out[i] = s
	}
	return out
}

// interleave alternates correct and incorrect samples so size-sweep
// prefixes contain both classes.
func interleave(d ml.Dataset) ml.Dataset {
	var correct, incorrect ml.Dataset
	for _, s := range d {
		if s.Correct {
			correct = append(correct, s)
		} else {
			incorrect = append(incorrect, s)
		}
	}
	out := make(ml.Dataset, 0, len(d))
	ci, ii := 0, 0
	for len(out) < len(d) {
		// Keep the original class ratio within every prefix.
		wantIncorrect := len(incorrect) * (len(out) + 1) / len(d)
		if ii < wantIncorrect && ii < len(incorrect) {
			out = append(out, incorrect[ii])
			ii++
		} else if ci < len(correct) {
			out = append(out, correct[ci])
			ci++
		} else {
			out = append(out, incorrect[ii])
			ii++
		}
	}
	return out
}

// Render formats the sweep studies.
func (r *SweepResult) Render() string {
	var b strings.Builder
	b.WriteString("Model studies the paper omitted (§III-B closing remark)\n\n")

	t := stats.NewTable("dropped feature", "accuracy", "coverage", "fpr", "nodes")
	for _, row := range r.FeatureAblation {
		t.AddRow(row.Dropped, stats.Pct(row.Eval.Accuracy()),
			stats.Pct(row.Eval.Coverage()),
			fmt.Sprintf("%.2f%%", 100*row.Eval.FalsePositiveRate()),
			fmt.Sprintf("%d", row.TreeSize))
	}
	b.WriteString("Feature ablation (random tree):\n" + t.String() + "\n")

	t = stats.NewTable("max depth", "accuracy", "coverage", "mean comparisons")
	for _, row := range r.DepthSweep {
		t.AddRow(fmt.Sprintf("%d", row.MaxDepth), stats.Pct(row.Eval.Accuracy()),
			stats.Pct(row.Eval.Coverage()), fmt.Sprintf("%.1f", row.MeanCompare))
	}
	b.WriteString("Tree depth sweep:\n" + t.String() + "\n")

	t = stats.NewTable("training fraction", "samples", "accuracy", "coverage")
	for _, row := range r.SizeSweep {
		t.AddRow(fmt.Sprintf("%.0f%%", 100*row.Fraction),
			fmt.Sprintf("%d", row.Samples), stats.Pct(row.Eval.Accuracy()),
			stats.Pct(row.Eval.Coverage()))
	}
	b.WriteString("Training-set size sweep:\n" + t.String() + "\n")

	t = stats.NewTable("model", "accuracy", "coverage", "fpr")
	t.AddRow("random tree", stats.Pct(r.TreeEval.Accuracy()),
		stats.Pct(r.TreeEval.Coverage()),
		fmt.Sprintf("%.2f%%", 100*r.TreeEval.FalsePositiveRate()))
	if r.BayesTrained {
		t.AddRow("naive Bayes (generative)", stats.Pct(r.BayesEval.Accuracy()),
			stats.Pct(r.BayesEval.Coverage()),
			fmt.Sprintf("%.2f%%", 100*r.BayesEval.FalsePositiveRate()))
	}
	b.WriteString("Discriminative vs generative baseline:\n" + t.String())
	return b.String()
}
