package ml

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
)

// smallTree is a hand-built two-split tree with a nonzero config, so
// every field of the encoding carries information.
func smallTree() *Tree {
	return &Tree{
		Cfg: Config{MaxDepth: 24, MinLeaf: 1, RandomFeatures: 3, Seed: -5},
		Root: &Node{Feature: FeatRT, Threshold: 200,
			Left: &Node{Leaf: true, Correct: true},
			Right: &Node{Feature: FeatVMER, Threshold: 1 << 40,
				Left:  &Node{Leaf: true},
				Right: &Node{Leaf: true, Correct: true}}},
	}
}

func mustEncode(t testing.TB, tree *Tree) []byte {
	t.Helper()
	b, err := tree.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTreeCodecRoundTrip(t *testing.T) {
	dt, err := Train(synthetic(2000, 30, 21), DefaultDecisionTree())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Train(synthetic(2000, 30, 22), DefaultRandomTree(9))
	if err != nil {
		t.Fatal(err)
	}
	leaf := &Tree{Root: &Node{Leaf: true, Correct: true}, Cfg: DefaultDecisionTree()}
	for name, tree := range map[string]*Tree{"decision": dt, "random": rt, "small": smallTree(), "leaf": leaf} {
		b := mustEncode(t, tree)
		got, err := DecodeTree(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, tree) {
			t.Fatalf("%s: round trip differs", name)
		}
		if again := mustEncode(t, got); !bytes.Equal(again, b) {
			t.Fatalf("%s: re-encoding is not byte-identical", name)
		}
	}
	// AppendBinary appends: a prefix survives and the tail decodes.
	b, err := smallTree().AppendBinary([]byte("hdr"))
	if err != nil || string(b[:3]) != "hdr" {
		t.Fatalf("append clobbered the prefix: %q %v", b[:3], err)
	}
	if _, err := DecodeTree(b[3:]); err != nil {
		t.Fatal(err)
	}
}

// TestTreeHashStable pins the canonical encoding: the same training
// yields the same hash, any tree change moves it, and a golden digest
// catches an accidental format change (which would make every pinned
// campaign store refuse to resume).
func TestTreeHashStable(t *testing.T) {
	train := synthetic(1500, 40, 23)
	a, _ := Train(train, DefaultRandomTree(3))
	b, _ := Train(train, DefaultRandomTree(3))
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hb, _ := b.Hash(); ha != hb {
		t.Fatal("identical training produced different hashes")
	}
	small := smallTree()
	h0, _ := small.Hash()
	small.Root.Right.Threshold++
	if h1, _ := small.Hash(); h1 == h0 {
		t.Fatal("threshold change kept the hash")
	}
	const golden = "089c5761f2de007fc15a6224de628e50273893032bf721d620f95b737824ead4"
	if got := hex.EncodeToString(h0[:]); got != golden {
		t.Errorf("small tree hash = %s, want %s (tree encoding changed)", got, golden)
	}
}

func TestTreeEncodeRejectsMalformed(t *testing.T) {
	for name, mutate := range map[string]func(*Tree){
		"nil root":       func(tr *Tree) { tr.Root = nil },
		"missing child":  func(tr *Tree) { tr.Root.Right.Left = nil },
		"feature range":  func(tr *Tree) { tr.Root.Feature = NumFeatures },
		"negative feat":  func(tr *Tree) { tr.Root.Feature = -1 },
		"leaf with kids": func(tr *Tree) { tr.Root.Left.Left = &Node{Leaf: true} },
		"leaf feature":   func(tr *Tree) { tr.Root.Left.Feature = 2 },
		"internal class": func(tr *Tree) { tr.Root.Correct = true },
	} {
		tr := smallTree()
		mutate(tr)
		if _, err := tr.AppendBinary(nil); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
	// A chain one level past the bound does not encode; at the bound it does.
	chain := func(depth int) *Tree {
		n := &Node{Leaf: true}
		for i := 0; i < depth; i++ {
			n = &Node{Feature: FeatRT, Threshold: uint64(i), Left: n, Right: &Node{Leaf: true, Correct: true}}
		}
		return &Tree{Root: n}
	}
	if _, err := chain(maxCodecDepth).AppendBinary(nil); err != nil {
		t.Errorf("depth %d: %v", maxCodecDepth, err)
	}
	if _, err := chain(maxCodecDepth + 1).AppendBinary(nil); err == nil {
		t.Errorf("depth %d encoded", maxCodecDepth+1)
	}
}

// TestDecodeTreeRejectsHostile covers each rejection class by hand; the
// fuzz target explores the rest.
func TestDecodeTreeRejectsHostile(t *testing.T) {
	good := mustEncode(t, smallTree())
	// header is everything before the node count: version + Cfg.
	header := []byte{codecVersion}
	for _, v := range []int64{24, 1, 3, -5} {
		header = binary.AppendVarint(header, v)
	}
	if !bytes.HasPrefix(good, header) {
		t.Fatal("encoding does not start with version and config")
	}
	withNodes := func(count uint64, nodes ...byte) []byte {
		b := append([]byte(nil), header...)
		b = binary.AppendUvarint(b, count)
		return append(b, nodes...)
	}
	deep := make([]byte, 0, 2*(maxCodecDepth+2))
	for range maxCodecDepth + 1 {
		deep = append(deep, tagInternal, FeatRT, 0)
	}
	deep = append(deep, tagLeafCorrect)
	for range maxCodecDepth + 1 {
		deep = append(deep, tagLeafIncorrect)
	}
	cases := map[string][]byte{
		"empty":            nil,
		"bad version":      append([]byte{codecVersion + 1}, good[1:]...),
		"truncated":        good[:len(good)-1],
		"trailing bytes":   append(append([]byte(nil), good...), 0),
		"zero nodes":       withNodes(0),
		"count over bound": withNodes(maxCodecNodes+1, bytes.Repeat([]byte{0}, 8)...),
		"count over input": withNodes(1 << 19),
		"count too small":  withNodes(1, tagInternal, FeatRT, 5, tagLeafCorrect, tagLeafIncorrect),
		"count too large":  withNodes(4, tagInternal, FeatRT, 5, tagLeafCorrect, tagLeafIncorrect),
		"feature range":    withNodes(3, tagInternal, NumFeatures, 5, tagLeafCorrect, tagLeafIncorrect),
		"missing child":    withNodes(2, tagInternal, FeatRT, 5, tagLeafCorrect),
		"unknown tag":      withNodes(1, 3),
		"overlong varint":  withNodes(3, tagInternal, FeatRT, 0x85, 0x00, tagLeafCorrect, tagLeafIncorrect),
		"too deep":         withNodes(uint64(2*maxCodecDepth+3), deep...),
	}
	for name, b := range cases {
		if tree, err := DecodeTree(b); err == nil {
			t.Errorf("%s: decoded to a %d-node tree", name, tree.Size())
		}
	}
	// The deep case is rejected for depth, not for anything incidental.
	if _, err := DecodeTree(cases["too deep"]); err == nil || !strings.Contains(err.Error(), "deeper") {
		t.Errorf("too deep: %v", err)
	}
}

// FuzzDecodeTree feeds arbitrary bytes to the decoder: each input either
// errors or decodes to a tree that re-encodes byte-identically and
// classifies any feature vector without panicking.
func FuzzDecodeTree(f *testing.F) {
	f.Add([]byte{})
	f.Add(mustEncode(f, smallTree()))
	if tree, err := Train(synthetic(400, 30, 24), DefaultRandomTree(5)); err == nil {
		f.Add(mustEncode(f, tree))
	}
	f.Add(mustEncode(f, &Tree{Root: &Node{Leaf: true}}))
	good := mustEncode(f, smallTree())
	f.Add(good[:len(good)-2])
	f.Fuzz(func(t *testing.T, b []byte) {
		tree, err := DecodeTree(b)
		if err != nil {
			return
		}
		again, err := tree.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded tree does not re-encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs: %x vs %x", again, b)
		}
		var features [NumFeatures]uint64
		for i := range features {
			features[i] = uint64(len(b)) << (8 * i)
		}
		tree.Classify(features)
		tree.Classify([NumFeatures]uint64{})
	})
}
