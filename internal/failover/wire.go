package failover

import (
	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/memmgr"
)

// This file defines the migration wire protocol: ckptlog frames
// (RawFrame{Kind: FrameType, ID: session, Seq, Payload}, payloads
// encoded with ckptlog.EncodePayload) that ship a sealed context image
// from a source node to a target. The exchange:
//
//	source → target  Hello   (entry manifests: per-chunk hash/len/CRC)
//	target → source  Need    (chunks not satisfiable from the target's
//	                          dedup store or a prior partial transfer —
//	                          the resumable offsets)
//	source → target  Chunk*  (only the needed chunks, one frame each)
//	source → target  Commit
//	target → source  Result  (imported, or a typed failure)
//
// Every frame is individually CRC-protected (split header/payload CRCs,
// like the journal), so a torn or corrupt frame is detected at the
// target before any of its bytes can reach an imported image. The
// decoder never panics on hostile input.
//
// Chunk identity is the memory manager's dedup identity: chunks are
// memmgr.DedupChunkSize long and named by memmgr.ChunkHash and
// memmgr.ChunkSum, so a manifest chunk of an entry's data has the same
// (hash, bytes) as the interned chunk a sealed copy of that entry
// produced — which is what lets the target satisfy chunks from its own
// dedup store without any transfer.

// FrameType tags a migration frame.
type FrameType uint8

// Frame types.
const (
	// FrameInvalid is the zero value; never encoded.
	FrameInvalid FrameType = iota
	// FrameHello opens a transfer: session metadata plus the chunk
	// manifest of every entry.
	FrameHello
	// FrameNeed is the target's reply to Hello: the chunks it wants.
	FrameNeed
	// FrameChunk carries one entry chunk's bytes.
	FrameChunk
	// FrameCommit asks the target to assemble and import the image.
	FrameCommit
	// FrameResult reports the import outcome.
	FrameResult
)

// DecodeMessage decodes one migration message from the head of data:
// a verified ckptlog frame whose Kind is a known FrameType. ok is false
// for a torn or corrupt frame and for an unknown kind; n is then 0.
func DecodeMessage(data []byte) (f ckptlog.RawFrame, n int, ok bool) {
	f, n, res := ckptlog.DecodeRawFrame(data)
	if res != ckptlog.FrameOK || FrameType(f.Kind) == FrameInvalid || FrameType(f.Kind) > FrameResult {
		return ckptlog.RawFrame{}, 0, false
	}
	return f, n, true
}

// ChunkRef identifies a chunk's content: FNV-1a hash (the dedup store's
// key), exact length, and a CRC-32C guarding against hash collisions
// and corruption.
type ChunkRef struct {
	Hash uint64
	Len  uint32
	Sum  uint32
}

// ChunkID addresses a chunk within a transfer: entry index in the Hello
// manifest, chunk index within that entry's data.
type ChunkID struct {
	Entry int32
	Index int32
}

// Hello is the FrameHello payload: everything about the image except
// the chunk bytes.
type Hello struct {
	Session int64
	Owner   string
	Epoch   uint64
	NextOff uint64
	// Pending are the kernels committed after the image's last
	// checkpoint; the target replays them on resume (§4.6).
	Pending []api.LaunchCall
	Entries []EntryManifest
	// TotalBytes is the summed data length across entries — what a
	// dedup-blind transfer would ship.
	TotalBytes int64
}

// EntryManifest is one entry's metadata plus its chunk manifest. Meta
// is the EntryImage with Data stripped (the chunks carry the bytes).
type EntryManifest struct {
	Meta   memmgr.EntryImage
	Chunks []ChunkRef
}

// Need is the FrameNeed payload: the chunks the target cannot satisfy
// locally.
type Need struct {
	Chunks []ChunkID
}

// Chunk is the FrameChunk payload.
type Chunk struct {
	ID   ChunkID
	Data []byte
}

// Result is the FrameResult payload.
type Result struct {
	Code   int32
	Detail string
}

// ManifestOf chunks data at memmgr.DedupChunkSize and returns the
// per-chunk refs.
func ManifestOf(data []byte) []ChunkRef {
	if len(data) == 0 {
		return nil
	}
	refs := make([]ChunkRef, 0, (len(data)+memmgr.DedupChunkSize-1)/memmgr.DedupChunkSize)
	for off := 0; off < len(data); off += memmgr.DedupChunkSize {
		c := ChunkAt(data, off/memmgr.DedupChunkSize)
		refs = append(refs, ChunkRef{
			Hash: memmgr.ChunkHash(c),
			Len:  uint32(len(c)),
			Sum:  memmgr.ChunkSum(c),
		})
	}
	return refs
}

// ChunkAt returns the i-th memmgr.DedupChunkSize slice of data (short final chunk),
// or nil when i is outside the manifest — a hostile Need frame naming an
// absurd index must not panic the source.
func ChunkAt(data []byte, i int) []byte {
	if i < 0 || i*memmgr.DedupChunkSize >= len(data) {
		return nil
	}
	lo := i * memmgr.DedupChunkSize
	hi := lo + memmgr.DedupChunkSize
	if hi > len(data) {
		hi = len(data)
	}
	return data[lo:hi]
}

// VerifyChunk reports whether data matches the manifest ref.
func VerifyChunk(ref ChunkRef, data []byte) bool {
	return uint32(len(data)) == ref.Len &&
		memmgr.ChunkHash(data) == ref.Hash &&
		memmgr.ChunkSum(data) == ref.Sum
}
