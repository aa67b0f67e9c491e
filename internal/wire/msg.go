package wire

import (
	"fmt"

	"xentry/internal/inject"
)

// Fleet protocol.
//
// Workers and the coordinator speak CRC frames (AppendFrame/Reader) over
// one persistent TCP connection per worker. Every frame's payload starts
// with a one-byte message type; the connection is strictly
// request/response driven by the worker (stop-and-wait), which is also
// the backpressure mechanism — a coordinator that cannot keep up simply
// acks slowly, and sets AckSlowdown to ask the worker to pause before its
// next batch.
//
//	worker → Hello            coordinator → Welcome | Error
//	worker → LeaseReq         coordinator → Lease | NoWork | Done
//	worker → Batch            coordinator → BatchAck
//	worker → ShardDone        coordinator → BatchAck
//	worker → ShardFail        coordinator → BatchAck
//
// The Welcome carries everything a worker executes: the spec its plans
// derive from, and the model bytes the coordinator trained once per
// campaign — workers never train.
//
// Batches carry concatenated WAL-compatible record frames (see
// AppendRecordFrame): the coordinator verifies and decodes each record to
// fold tallies, then appends the already-framed bytes to the WAL verbatim
// — the hot path never re-encodes.

// MsgType is the leading byte of every protocol frame payload.
type MsgType byte

// Protocol message types.
const (
	MsgHello     MsgType = 1  // worker → coordinator: version, campaign, name
	MsgWelcome   MsgType = 2  // coordinator → worker: version, campaign spec JSON, model
	MsgLeaseReq  MsgType = 3  // worker → coordinator: give me a shard
	MsgLease     MsgType = 4  // coordinator → worker: one shard lease
	MsgNoWork    MsgType = 5  // coordinator → worker: nothing leasable now, retry
	MsgDone      MsgType = 6  // coordinator → worker: campaign complete, disconnect
	MsgBatch     MsgType = 7  // worker → coordinator: record frames for a lease
	MsgBatchAck  MsgType = 8  // coordinator → worker: batch accepted (+flags)
	MsgShardDone MsgType = 9  // worker → coordinator: lease finished + tally
	MsgShardFail MsgType = 10 // worker → coordinator: lease failed, requeue
	MsgError     MsgType = 11 // coordinator → worker: refusal (fatal for the conn)
)

// AckSlowdown in BatchAck.Flags asks the worker to pause briefly before
// sending its next batch: the coordinator's ingest queue is past its high
// watermark.
const AckSlowdown = 1

// maxIndices bounds a lease's plan-index list; campaigns are bounded far
// below this, so a larger claim is corruption.
const maxIndices = 1 << 24

// maxBlob bounds embedded byte blobs (spec JSON, models, batch blocks,
// tallies).
const maxBlob = MaxFrame

// Hello opens a worker session.
type Hello struct {
	Version  uint64
	Campaign string
	Worker   string
}

// Welcome answers a Hello: the campaign spec as canonical JSON, from
// which the worker derives the exact CampaignConfig (and therefore the
// exact plans) the coordinator uses, and the transition model the
// coordinator trained once for the campaign, in its canonical ml
// encoding (ml.DecodeTree). An empty Model means the campaign runs
// without one (train_injections 0).
type Welcome struct {
	Version uint64
	Spec    []byte
	Model   []byte
}

// Lease hands one shard to a worker. Indices are positions into the
// benchmark's seed-derived plan array (activation-sorted, deduplicated
// against the store at enqueue time).
type Lease struct {
	ID      uint64
	Bench   string
	BenchAt int // index into the campaign's benchmark list
	Shard   int
	Indices []int
}

// NoWork tells a worker to retry after roughly RetryMillis.
type NoWork struct {
	RetryMillis uint64
}

// Batch streams records for a lease. Block is concatenated record frames;
// Records is the sender's count (the receiver re-counts, the field exists
// for accounting and damage reporting).
type Batch struct {
	Lease   uint64
	Records uint64
	Block   []byte
}

// BatchAck acknowledges a Batch, ShardDone or ShardFail.
type BatchAck struct {
	Flags uint64
}

// ShardDone closes a lease. Claimed is how many of the lease's indices
// the worker executed and streamed; Tally is the worker's own fold of
// exactly those outcomes (encoded with AppendTally), which the
// coordinator cross-checks against its fold of what actually arrived.
type ShardDone struct {
	Lease   uint64
	Claimed uint64
	Tally   []byte
}

// ShardFail abandons a lease; the coordinator requeues it.
type ShardFail struct {
	Lease uint64
	Err   string
}

// ErrorMsg refuses a worker; the connection is closed after it.
type ErrorMsg struct {
	Err string
}

func appendBlob(dst, blob []byte) []byte {
	dst = appendUvarint(dst, uint64(len(blob)))
	return append(dst, blob...)
}

func consumeBlob(b []byte) ([]byte, []byte, error) {
	n, rest, err := consumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > maxBlob || int(n) > len(rest) {
		return nil, nil, errTruncated
	}
	return rest[:n], rest[n:], nil
}

// AppendHello appends a framed Hello message.
func AppendHello(dst []byte, m Hello) []byte {
	p := []byte{byte(MsgHello)}
	p = appendUvarint(p, m.Version)
	p = appendString(p, m.Campaign)
	p = appendString(p, m.Worker)
	return AppendFrame(dst, p)
}

// AppendWelcome appends a framed Welcome message.
func AppendWelcome(dst []byte, m Welcome) []byte {
	p := []byte{byte(MsgWelcome)}
	p = appendUvarint(p, m.Version)
	p = appendBlob(p, m.Spec)
	p = appendBlob(p, m.Model)
	return AppendFrame(dst, p)
}

// AppendLeaseReq appends a framed LeaseReq message.
func AppendLeaseReq(dst []byte) []byte {
	return AppendFrame(dst, []byte{byte(MsgLeaseReq)})
}

// AppendLease appends a framed Lease message.
func AppendLease(dst []byte, m Lease) []byte {
	p := []byte{byte(MsgLease)}
	p = appendUvarint(p, m.ID)
	p = appendString(p, m.Bench)
	p = appendUvarint(p, uint64(m.BenchAt))
	p = appendUvarint(p, uint64(m.Shard))
	p = appendUvarint(p, uint64(len(m.Indices)))
	for _, i := range m.Indices {
		p = appendUvarint(p, uint64(i))
	}
	return AppendFrame(dst, p)
}

// AppendNoWork appends a framed NoWork message.
func AppendNoWork(dst []byte, m NoWork) []byte {
	p := []byte{byte(MsgNoWork)}
	p = appendUvarint(p, m.RetryMillis)
	return AppendFrame(dst, p)
}

// AppendDone appends a framed Done message.
func AppendDone(dst []byte) []byte {
	return AppendFrame(dst, []byte{byte(MsgDone)})
}

// AppendBatch appends a framed Batch message.
func AppendBatch(dst []byte, m Batch) []byte {
	p := make([]byte, 0, 1+3*10+len(m.Block))
	p = append(p, byte(MsgBatch))
	p = appendUvarint(p, m.Lease)
	p = appendUvarint(p, m.Records)
	p = appendBlob(p, m.Block)
	return AppendFrame(dst, p)
}

// AppendBatchAck appends a framed BatchAck message.
func AppendBatchAck(dst []byte, m BatchAck) []byte {
	p := []byte{byte(MsgBatchAck)}
	p = appendUvarint(p, m.Flags)
	return AppendFrame(dst, p)
}

// AppendShardDone appends a framed ShardDone message.
func AppendShardDone(dst []byte, m ShardDone) []byte {
	p := []byte{byte(MsgShardDone)}
	p = appendUvarint(p, m.Lease)
	p = appendUvarint(p, m.Claimed)
	p = appendBlob(p, m.Tally)
	return AppendFrame(dst, p)
}

// AppendShardFail appends a framed ShardFail message.
func AppendShardFail(dst []byte, m ShardFail) []byte {
	p := []byte{byte(MsgShardFail)}
	p = appendUvarint(p, m.Lease)
	p = appendString(p, m.Err)
	return AppendFrame(dst, p)
}

// AppendError appends a framed ErrorMsg message.
func AppendError(dst []byte, m ErrorMsg) []byte {
	p := []byte{byte(MsgError)}
	p = appendString(p, m.Err)
	return AppendFrame(dst, p)
}

// Msg is a decoded protocol message: Type plus exactly one non-nil body.
type Msg struct {
	Type      MsgType
	Hello     *Hello
	Welcome   *Welcome
	Lease     *Lease
	NoWork    *NoWork
	Batch     *Batch
	BatchAck  *BatchAck
	ShardDone *ShardDone
	ShardFail *ShardFail
	Error     *ErrorMsg
}

// DecodeMsg decodes one message payload (one frame's payload, as handed
// out by Reader.Next or SplitFrame). Byte-slice fields (Batch.Block,
// Welcome.Spec, Welcome.Model, ShardDone.Tally) alias the payload and are
// valid only as long as it is.
func DecodeMsg(payload []byte) (Msg, error) {
	t, b, err := consumeByte(payload)
	if err != nil {
		return Msg{}, err
	}
	m := Msg{Type: MsgType(t)}
	bad := func(err error) (Msg, error) {
		return Msg{}, fmt.Errorf("wire: decoding message type %d: %w", t, err)
	}
	switch m.Type {
	case MsgHello:
		h := &Hello{}
		if h.Version, b, err = consumeUvarint(b); err != nil {
			return bad(err)
		}
		if h.Campaign, b, err = consumeString(b); err != nil {
			return bad(err)
		}
		if h.Worker, b, err = consumeString(b); err != nil {
			return bad(err)
		}
		m.Hello = h
	case MsgWelcome:
		w := &Welcome{}
		if w.Version, b, err = consumeUvarint(b); err != nil {
			return bad(err)
		}
		if w.Spec, b, err = consumeBlob(b); err != nil {
			return bad(err)
		}
		if w.Model, b, err = consumeBlob(b); err != nil {
			return bad(err)
		}
		m.Welcome = w
	case MsgLeaseReq, MsgDone:
		// no body
	case MsgLease:
		l := &Lease{}
		var v uint64
		if l.ID, b, err = consumeUvarint(b); err != nil {
			return bad(err)
		}
		if l.Bench, b, err = consumeString(b); err != nil {
			return bad(err)
		}
		if v, b, err = consumeUvarint(b); err != nil {
			return bad(err)
		}
		l.BenchAt = int(v)
		if v, b, err = consumeUvarint(b); err != nil {
			return bad(err)
		}
		l.Shard = int(v)
		if v, b, err = consumeUvarint(b); err != nil {
			return bad(err)
		}
		if v > maxIndices {
			return bad(fmt.Errorf("wire: lease index count %d exceeds bound", v))
		}
		n := int(v)
		hint := n
		if hint > len(b) { // every index consumes >= 1 byte
			hint = len(b)
		}
		l.Indices = make([]int, 0, hint)
		for i := 0; i < n; i++ {
			if v, b, err = consumeUvarint(b); err != nil {
				return bad(err)
			}
			if v > maxIndices {
				return bad(fmt.Errorf("wire: lease index %d exceeds bound", v))
			}
			l.Indices = append(l.Indices, int(v))
		}
		m.Lease = l
	case MsgNoWork:
		w := &NoWork{}
		if w.RetryMillis, b, err = consumeUvarint(b); err != nil {
			return bad(err)
		}
		m.NoWork = w
	case MsgBatch:
		bt := &Batch{}
		if bt.Lease, b, err = consumeUvarint(b); err != nil {
			return bad(err)
		}
		if bt.Records, b, err = consumeUvarint(b); err != nil {
			return bad(err)
		}
		if bt.Block, b, err = consumeBlob(b); err != nil {
			return bad(err)
		}
		m.Batch = bt
	case MsgBatchAck:
		a := &BatchAck{}
		if a.Flags, b, err = consumeUvarint(b); err != nil {
			return bad(err)
		}
		m.BatchAck = a
	case MsgShardDone:
		sd := &ShardDone{}
		if sd.Lease, b, err = consumeUvarint(b); err != nil {
			return bad(err)
		}
		if sd.Claimed, b, err = consumeUvarint(b); err != nil {
			return bad(err)
		}
		if sd.Tally, b, err = consumeBlob(b); err != nil {
			return bad(err)
		}
		m.ShardDone = sd
	case MsgShardFail:
		sf := &ShardFail{}
		if sf.Lease, b, err = consumeUvarint(b); err != nil {
			return bad(err)
		}
		if sf.Err, b, err = consumeString(b); err != nil {
			return bad(err)
		}
		m.ShardFail = sf
	case MsgError:
		e := &ErrorMsg{}
		if e.Err, b, err = consumeString(b); err != nil {
			return bad(err)
		}
		m.Error = e
	default:
		return Msg{}, fmt.Errorf("wire: unknown message type %d", t)
	}
	if len(b) != 0 {
		return Msg{}, fmt.Errorf("wire: %d trailing bytes after message type %d", len(b), t)
	}
	return m, nil
}

// DecodeTallyFull decodes a complete tally blob (e.g. ShardDone.Tally),
// rejecting trailing bytes.
func (d *Decoder) DecodeTallyFull(blob []byte) (*inject.Tally, error) {
	t, rest, err := d.DecodeTally(blob)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after tally", len(rest))
	}
	return t, nil
}
