package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Canonical tree encoding. A campaign coordinator trains its transition
// model once and ships these bytes to every worker, and the result store
// pins their SHA-256, so the encoding is a pure function of the tree:
//
//	version byte (1)
//	Cfg: MaxDepth, MinLeaf, RandomFeatures, Seed   (zigzag varints)
//	node count                                     (uvarint)
//	nodes in pre-order, each one of
//	  0x00 | 0x01                    leaf, class incorrect | correct
//	  0x02 feature threshold         internal node (uvarints), then
//	                                 its left and right subtrees
//
// Only trees that round-trip exactly encode: a leaf carries nothing but
// its class, an internal node has both children and no class. The
// decoder takes hostile bytes (the fleet reads them off the network) and
// errors on anything Classify could not walk safely.

const codecVersion = 1

const (
	tagLeafIncorrect = 0
	tagLeafCorrect   = 1
	tagInternal      = 2
)

// maxCodecDepth bounds the depth (root = 0) of an encodable tree: the
// paper configuration's MaxDepth, so every default-trained tree fits.
const maxCodecDepth = 24

// maxCodecNodes bounds an encoded tree's node count.
const maxCodecNodes = 1 << 20

// errTreeTruncated reports an encoding that ends mid-field.
var errTreeTruncated = errors.New("ml: tree encoding truncated")

// AppendBinary appends the tree's canonical encoding to b (it implements
// encoding.BinaryAppender). It fails for a tree that would not decode
// back to itself: a nil root, a missing child, an out-of-range feature,
// stray fields on a node, or more than maxCodecDepth levels.
func (t *Tree) AppendBinary(b []byte) ([]byte, error) {
	if t == nil || t.Root == nil {
		return b, errors.New("ml: encoding an empty tree")
	}
	b = append(b, codecVersion)
	b = binary.AppendVarint(b, int64(t.Cfg.MaxDepth))
	b = binary.AppendVarint(b, int64(t.Cfg.MinLeaf))
	b = binary.AppendVarint(b, int64(t.Cfg.RandomFeatures))
	b = binary.AppendVarint(b, t.Cfg.Seed)
	n := t.Size()
	if n > maxCodecNodes {
		return b, fmt.Errorf("ml: tree has %d nodes, codec bound is %d", n, maxCodecNodes)
	}
	b = binary.AppendUvarint(b, uint64(n))
	return appendNode(b, t.Root, 0)
}

func appendNode(b []byte, n *Node, depth int) ([]byte, error) {
	if n == nil {
		return b, errors.New("ml: encoding a tree with a missing child")
	}
	if depth > maxCodecDepth {
		return b, fmt.Errorf("ml: tree deeper than the codec bound %d", maxCodecDepth)
	}
	if n.Leaf {
		if n.Feature != 0 || n.Threshold != 0 || n.Left != nil || n.Right != nil {
			return b, errors.New("ml: encoding a leaf with split fields set")
		}
		if n.Correct {
			return append(b, tagLeafCorrect), nil
		}
		return append(b, tagLeafIncorrect), nil
	}
	if n.Correct {
		return b, errors.New("ml: encoding an internal node with a class")
	}
	if n.Feature < 0 || n.Feature >= NumFeatures {
		return b, fmt.Errorf("ml: encoding feature %d outside [0,%d)", n.Feature, NumFeatures)
	}
	b = append(b, tagInternal)
	b = binary.AppendUvarint(b, uint64(n.Feature))
	b = binary.AppendUvarint(b, n.Threshold)
	b, err := appendNode(b, n.Left, depth+1)
	if err != nil {
		return b, err
	}
	return appendNode(b, n.Right, depth+1)
}

// Hash returns the SHA-256 of the tree's canonical encoding: the model
// identity a campaign store pins.
func (t *Tree) Hash() ([sha256.Size]byte, error) {
	b, err := t.AppendBinary(nil)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// DecodeTree decodes a canonical encoding produced by AppendBinary. Any
// other input — truncated, trailing bytes, an unknown version or tag, a
// feature Classify cannot index, a node count that disagrees with the
// walk or exceeds the codec bound, more than maxCodecDepth levels — is an
// error, never a panic.
func DecodeTree(b []byte) (*Tree, error) {
	d := treeDecoder{b: b}
	if v := d.byte(); d.err == nil && v != codecVersion {
		return nil, fmt.Errorf("ml: tree encoding version %d, want %d", v, codecVersion)
	}
	cfg := Config{
		MaxDepth:       int(d.varint()),
		MinLeaf:        int(d.varint()),
		RandomFeatures: int(d.varint()),
		Seed:           d.varint(),
	}
	count := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	// Every node takes at least one byte, so the remaining input bounds
	// the count before anything is allocated for it.
	if count == 0 || count > maxCodecNodes || count > uint64(len(d.b)) {
		return nil, fmt.Errorf("ml: tree node count %d out of range", count)
	}
	d.nodes = make([]Node, count)
	root := d.node(0)
	if d.err != nil {
		return nil, d.err
	}
	if len(d.nodes) != 0 {
		return nil, fmt.Errorf("ml: tree node count %d, walk found %d", count, int(count)-len(d.nodes))
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("ml: %d trailing bytes after tree", len(d.b))
	}
	return &Tree{Root: root, Cfg: cfg}, nil
}

// treeDecoder consumes an encoding; the first error sticks and every
// later read returns zero.
type treeDecoder struct {
	b     []byte
	nodes []Node // the unclaimed tail of the node slab
	err   error
}

func (d *treeDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *treeDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail(errTreeTruncated)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *treeDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	d.advance(n)
	return v
}

func (d *treeDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	d.advance(n)
	return v
}

// advance consumes an n-byte varint (n as binary.Uvarint reports it). An
// overlong varint — a trailing zero byte — is refused: it would decode
// but not re-encode to the same bytes, and the encoding is canonical.
func (d *treeDecoder) advance(n int) {
	switch {
	case n <= 0:
		d.fail(errTreeTruncated)
	case n > 1 && d.b[n-1] == 0:
		d.fail(errors.New("ml: overlong varint in tree encoding"))
	default:
		d.b = d.b[n:]
	}
}

// node decodes one pre-order subtree rooted at depth.
func (d *treeDecoder) node(depth int) *Node {
	if depth > maxCodecDepth {
		d.fail(fmt.Errorf("ml: tree deeper than the codec bound %d", maxCodecDepth))
		return nil
	}
	if len(d.nodes) == 0 {
		d.fail(errors.New("ml: tree has more nodes than its count"))
		return nil
	}
	n := &d.nodes[0]
	d.nodes = d.nodes[1:]
	switch tag := d.byte(); tag {
	case tagLeafIncorrect, tagLeafCorrect:
		n.Leaf, n.Correct = true, tag == tagLeafCorrect
		return n
	case tagInternal:
	default:
		d.fail(fmt.Errorf("ml: unknown tree node tag %d", tag))
		return nil
	}
	f := d.uvarint()
	if d.err == nil && f >= NumFeatures {
		d.fail(fmt.Errorf("ml: tree feature %d outside [0,%d)", f, NumFeatures))
	}
	n.Feature, n.Threshold = int(f), d.uvarint()
	n.Left = d.node(depth + 1)
	n.Right = d.node(depth + 1)
	if d.err != nil {
		return nil
	}
	return n
}
