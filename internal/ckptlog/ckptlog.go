// Package ckptlog is the runtime's crash-consistent durability layer:
// an append-only, CRC-framed write-ahead journal of checkpoint state.
//
// The paper's §4.6 fault tolerance rests on "the page table + swap area
// are the checkpoint", but an in-memory checkpoint dies with the
// process. This package makes it durable continuously: every mutation
// of the durable state — a page-table entry written or freed, a context
// created or destroyed, a kernel committed, a checkpoint taken — is
// appended to a journal file as a self-describing CRC-framed record,
// and full ContextImage snapshots periodically fold the journal into a
// compact snapshot file via write-temp + fsync + atomic rename.
//
// Durability contract: a record is committed once Sync returns — commit
// records (kernel committed, checkpoint, context destroyed) sync before
// the caller acknowledges the operation, so an acknowledged kernel is
// never lost by a crash. Mutation records between commits ride along:
// fsync is ordered, so syncing a commit record makes every earlier
// append durable too.
//
// Recovery contract (Open): the snapshot and journal are replayed into
// an in-memory mirror. A torn tail — a partial or header-corrupt frame
// at the end of the journal, the signature of a crash mid-write — is
// truncated, never fatal. A frame whose header is intact but whose
// payload fails its CRC (or does not decode) quarantines just that
// frame's context: its state is dropped and later records for it are
// ignored, while every other context is restored. Only a corrupt
// snapshot *header* is unrecoverable, because it carries the sequence
// fence that keeps journal replay idempotent across a compaction crash.
package ckptlog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"gvrt/internal/api"
	"gvrt/internal/memmgr"
)

// RecType identifies one journal record flavour.
type RecType uint8

// Record types. The zero value is invalid so a zeroed frame can never
// masquerade as a real record.
const (
	recInvalid RecType = iota
	// RecSnapshotHeader opens a snapshot file; its payload carries the
	// sequence fence (see headerRecord).
	RecSnapshotHeader
	// RecImage is a full per-context image: the serialised ContextImage
	// plus the kernels committed since its last checkpoint. It appears
	// in snapshot files (one per context) and in the journal when a
	// whole context's state is installed at once (journal attach,
	// RestoreState import).
	RecImage
	// RecContextCreated records a context coming into existence.
	RecContextCreated
	// RecContextDestroyed records an orderly context teardown: its
	// durable state is discarded.
	RecContextDestroyed
	// RecEntryWritten records one page-table entry's swap-side state
	// after a mutation (allocation, host write, checkpoint flush).
	RecEntryWritten
	// RecEntryFreed records a page-table entry de-allocation.
	RecEntryFreed
	// RecKernelCommitted records one acknowledged kernel launch; on
	// recovery the kernels committed since the last checkpoint are
	// replayed to regenerate device-only state (§4.6).
	RecKernelCommitted
	// RecCheckpoint records a checkpoint boundary: the entry-written
	// records before it capture the full device state, so the pending
	// kernel list resets.
	RecCheckpoint
)

var recNames = [...]string{
	recInvalid:          "invalid",
	RecSnapshotHeader:   "snapshot-header",
	RecImage:            "image",
	RecContextCreated:   "context-created",
	RecContextDestroyed: "context-destroyed",
	RecEntryWritten:     "entry-written",
	RecEntryFreed:       "entry-freed",
	RecKernelCommitted:  "kernel-committed",
	RecCheckpoint:       "checkpoint",
}

// String implements fmt.Stringer.
func (t RecType) String() string {
	if int(t) < len(recNames) {
		return recNames[t]
	}
	return fmt.Sprintf("rectype(%d)", int(t))
}

// headerRecord is the payload of RecSnapshotHeader. AppliedSeq is the
// sequence fence: every journal record with Seq <= AppliedSeq is already
// folded into the snapshot and must be skipped on replay — that is what
// makes recovery idempotent when a crash lands between the snapshot
// rename and the journal truncation.
type headerRecord struct {
	AppliedSeq uint64
	Contexts   int
}

// imageRecord is the payload of RecImage: one context's complete
// durable state.
type imageRecord struct {
	Image   memmgr.ContextImage
	Pending []api.LaunchCall
}

// entryRecord is the payload of RecEntryWritten.
type entryRecord struct {
	Entry memmgr.EntryImage
	// NextOff, when non-zero, advances the context's allocation cursor
	// (set by allocation-originated writes so restored contexts never
	// hand out overlapping virtual addresses).
	NextOff uint64
}

// freeRecord is the payload of RecEntryFreed.
type freeRecord struct {
	Virtual api.DevPtr
}

// kernelRecord is the payload of RecKernelCommitted.
type kernelRecord struct {
	Call api.LaunchCall
}

// Frame layout (little-endian):
//
//	offset 0  magic   uint32  frameMagic
//	offset 4  type    uint8   RecType
//	offset 5  ctx     int64   owning context (0 for header records)
//	offset 13 seq     uint64  monotonic record sequence number
//	offset 21 len     uint32  payload length
//	offset 25 hdrCRC  uint32  CRC-32C of bytes [0,25)
//	offset 29 payload
//	...       payCRC  uint32  CRC-32C of the payload
//
// The split CRC is what powers selective quarantine: an intact header
// with a corrupt payload still tells recovery the record's type, owner
// and extent, so exactly that context can be quarantined and the scan
// can continue at the next frame. A corrupt header leaves the extent
// unknowable — the remainder is a torn tail.
const (
	frameMagic    = 0x4756434b // "GVCK"
	frameHdrLen   = 29
	frameTailLen  = 4
	maxPayloadLen = 1 << 28 // 256 MiB: larger lengths are corruption
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frame is one decoded journal frame.
type frame struct {
	Type    RecType
	Ctx     int64
	Seq     uint64
	Payload []byte
}

// encodeFrame appends the framed record to buf and returns it.
func encodeFrame(buf []byte, f frame) []byte {
	var hdr [frameHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	hdr[4] = byte(f.Type)
	binary.LittleEndian.PutUint64(hdr[5:], uint64(f.Ctx))
	binary.LittleEndian.PutUint64(hdr[13:], f.Seq)
	binary.LittleEndian.PutUint32(hdr[21:], uint32(len(f.Payload)))
	binary.LittleEndian.PutUint32(hdr[25:], crc32.Checksum(hdr[:25], crcTable))
	buf = append(buf, hdr[:]...)
	buf = append(buf, f.Payload...)
	var tail [frameTailLen]byte
	binary.LittleEndian.PutUint32(tail[0:], crc32.Checksum(f.Payload, crcTable))
	return append(buf, tail[:]...)
}

// decodeResult classifies one frame-decode attempt.
type decodeResult int

const (
	// decodeOK: a complete, fully verified frame.
	decodeOK decodeResult = iota
	// decodeTorn: the data ends mid-frame or the header is corrupt; the
	// extent of the frame is unknowable, so everything from its start
	// is a torn tail.
	decodeTorn
	// decodeCorruptPayload: the header verified but the payload did not
	// — the frame's context should be quarantined, and scanning can
	// continue after the frame.
	decodeCorruptPayload
)

// decodeFrame decodes one frame from data. n is the number of bytes
// consumed (0 when torn). It never panics on arbitrary input.
func decodeFrame(data []byte) (f frame, n int, res decodeResult) {
	if len(data) < frameHdrLen {
		return frame{}, 0, decodeTorn
	}
	hdr := data[:frameHdrLen]
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic {
		return frame{}, 0, decodeTorn
	}
	if binary.LittleEndian.Uint32(hdr[25:]) != crc32.Checksum(hdr[:25], crcTable) {
		return frame{}, 0, decodeTorn
	}
	plen := binary.LittleEndian.Uint32(hdr[21:])
	if plen > maxPayloadLen {
		// The header CRC matched but the length is absurd; treat as torn
		// rather than attempting a multi-gigabyte read.
		return frame{}, 0, decodeTorn
	}
	f = frame{
		Type: RecType(hdr[4]),
		Ctx:  int64(binary.LittleEndian.Uint64(hdr[5:])),
		Seq:  binary.LittleEndian.Uint64(hdr[13:]),
	}
	total := frameHdrLen + int(plen) + frameTailLen
	if len(data) < total {
		return frame{}, 0, decodeTorn
	}
	payload := data[frameHdrLen : frameHdrLen+int(plen)]
	want := binary.LittleEndian.Uint32(data[frameHdrLen+int(plen):])
	if crc32.Checksum(payload, crcTable) != want {
		return f, total, decodeCorruptPayload
	}
	f.Payload = payload
	return f, total, decodeOK
}

// EncodePayload gob-encodes v as a self-contained record payload. It is
// the one payload encoder for every durable record and wire frame: the
// journal, the control-plane store and the migration protocol.
func EncodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("ckptlog: encoding record: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePayload gob-decodes a record payload. Any decode failure —
// including a panic from a hostile gob stream — is reported as a typed
// error wrapping api.ErrInvalidValue, never a crash: decode feeds on disk
// and wire bytes that survived a CRC only by construction or by fuzzing.
// Input is capped at the frame payload bound.
func DecodePayload(data []byte, v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ckptlog: record decode panicked: %v: %w", r, api.ErrInvalidValue)
		}
	}()
	dec := gob.NewDecoder(io.LimitReader(bytes.NewReader(data), maxPayloadLen))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("ckptlog: decoding record: %v: %w", err, api.ErrInvalidValue)
	}
	return nil
}
