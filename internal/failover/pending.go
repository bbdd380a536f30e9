package failover

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gvrt/internal/ckptlog"
)

// This file implements the target side's crash safety: an import in
// progress is recorded as a pending operation (heketi's pending-op
// pattern) — a spool file whose first frame is the PendingRecord and
// whose later frames are the chunks received so far. The spool buys two
// properties:
//
//   - Resumable offsets: a transfer that broke mid-stream (source died,
//     partition) leaves its spooled chunks on disk; when the source —
//     or a failover retry — re-sends Hello for the same session and
//     epoch, the target excludes the spooled chunks from its need-set,
//     so only the missing tail crosses the wire again.
//   - Clean abort: a target that crashed mid-import comes back up with
//     a spool but no imported session. Recovery resolves it by deleting
//     the spool — the import either committed atomically (spool gone,
//     session journaled) or never happened.
//
// An empty dir runs the spool purely in memory: no crash durability,
// but the same resumable-offsets behaviour for live-target retries.

// PendingRecord describes one in-flight import. It is the payload of the
// spool's first frame, of kind FrameHello.
type PendingRecord struct {
	Session int64
	Owner   string
	Epoch   uint64
	// Total is the number of chunks the transfer's manifest names.
	Total int
}

// maxSpoolHeader bounds the bytes PendingOps reads to find a spool's
// header frame.
const maxSpoolHeader = 64 << 10

func spoolPath(dir string, session int64) string {
	return filepath.Join(dir, fmt.Sprintf("mig-%d.spool", session))
}

// Spool accumulates received chunks for one import. Not safe for
// concurrent use; the import runs under its connection's service lock.
type Spool struct {
	dir    string
	rec    PendingRecord
	chunks map[ChunkID][]byte
	f      *os.File
}

// OpenSpool starts (or resumes) the spool for rec. With a directory it
// replays the existing spool file: when its header frame is rec, the
// chunk frames recorded by a previous attempt are loaded as
// already-received, and a torn tail — the crash arrived mid-append — is
// truncated away, exactly like the journal's recovery. A missing, torn
// or different header (another epoch or owner: the image may have
// changed) makes the spool stale: the file is truncated and a fresh,
// fsynced header written.
func OpenSpool(dir string, rec PendingRecord) (*Spool, error) {
	s := &Spool{dir: dir, rec: rec, chunks: make(map[ChunkID][]byte)}
	if dir == "" {
		return s, nil
	}
	f, err := os.OpenFile(spoolPath(dir, rec.Session), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("failover: opening spool: %w", err)
	}
	s.f = f
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load replays the spool file into the chunk map, then truncates it to
// its valid prefix — just past the last intact chunk, or to nothing
// plus a fresh header when the spool is stale — so later appends extend
// a clean prefix.
func (s *Spool) load() error {
	data, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("failover: reading spool: %w", err)
	}
	prev, valid, ok := decodeSpoolHeader(data)
	if !ok || prev != s.rec {
		valid = 0 // stale: start over from a fresh header
	}
	for valid > 0 && valid < len(data) {
		f, n, res := ckptlog.DecodeRawFrame(data[valid:])
		if res != ckptlog.FrameOK || FrameType(f.Kind) != FrameChunk {
			break
		}
		var c Chunk
		if ckptlog.DecodePayload(f.Payload, &c) != nil {
			break
		}
		s.chunks[c.ID] = c.Data
		valid += n
	}
	if valid < len(data) {
		if err := s.f.Truncate(int64(valid)); err != nil {
			return fmt.Errorf("failover: truncating spool: %w", err)
		}
	}
	if _, err := s.f.Seek(int64(valid), io.SeekStart); err != nil {
		return fmt.Errorf("failover: seeking spool: %w", err)
	}
	if valid > 0 {
		return nil
	}
	hdr := ckptlog.EncodeRawFrame(nil, ckptlog.RawFrame{Kind: uint8(FrameHello), ID: s.rec.Session, Payload: mustEncode(s.rec)})
	if _, err := s.f.Write(hdr); err != nil {
		return fmt.Errorf("failover: writing spool header: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("failover: syncing spool header: %w", err)
	}
	return nil
}

// decodeSpoolHeader decodes the PendingRecord heading a spool file and
// the bytes it spans.
func decodeSpoolHeader(data []byte) (rec PendingRecord, n int, ok bool) {
	f, n, res := ckptlog.DecodeRawFrame(data)
	if res != ckptlog.FrameOK || FrameType(f.Kind) != FrameHello || ckptlog.DecodePayload(f.Payload, &rec) != nil {
		return PendingRecord{}, 0, false
	}
	return rec, n, true
}

// Has reports whether the chunk was already received (or satisfied from
// the dedup store via PutLocal).
func (s *Spool) Has(id ChunkID) bool {
	_, ok := s.chunks[id]
	return ok
}

// Get returns a received chunk's bytes.
func (s *Spool) Get(id ChunkID) ([]byte, bool) {
	b, ok := s.chunks[id]
	return b, ok
}

// Count reports how many chunks the spool holds.
func (s *Spool) Count() int { return len(s.chunks) }

// Put records a chunk received over the wire, appending it durably when
// the spool is file-backed so a retry after a crash need not re-ship it.
func (s *Spool) Put(id ChunkID, data []byte) error {
	s.chunks[id] = data
	if s.f == nil {
		return nil
	}
	frame := ckptlog.EncodeRawFrame(nil, ckptlog.RawFrame{Kind: uint8(FrameChunk), ID: s.rec.Session, Payload: mustEncode(Chunk{ID: id, Data: data})})
	if _, err := s.f.Write(frame); err != nil {
		return fmt.Errorf("failover: spooling chunk: %w", err)
	}
	return nil
}

// PutLocal records a chunk satisfied without transfer (dedup-store hit).
// It is not spooled: the store can satisfy it again after a crash.
func (s *Spool) PutLocal(id ChunkID, data []byte) {
	s.chunks[id] = data
}

// Resolve finishes the pending operation: the spool is deleted. Call it
// after the import committed (the journal now owns the session) or when
// aborting a dead transfer.
func (s *Spool) Resolve() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	if s.dir != "" {
		_ = os.Remove(spoolPath(s.dir, s.rec.Session))
	}
	s.chunks = make(map[ChunkID][]byte)
}

// Close releases the spool file without deleting it — the pending
// record survives for a later resume or recovery-time abort.
func (s *Spool) Close() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// PendingOps lists the pending-operation records of the spools in dir.
// A spool whose header is torn is skipped: it names no import.
func PendingOps(dir string) []PendingRecord {
	var recs []PendingRecord
	for _, path := range spools(dir) {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		// The header frame is small; the chunks after it need not be read.
		data, _ := io.ReadAll(io.LimitReader(f, maxSpoolHeader))
		f.Close()
		if rec, _, ok := decodeSpoolHeader(data); ok {
			recs = append(recs, rec)
		}
	}
	return recs
}

// ResolvePending aborts every pending import in dir (target restart:
// nothing in-flight can complete, and a committed import already
// resolved its spool) by deleting every spool, torn ones included.
// Returns the number of records aborted.
func ResolvePending(dir string, logf func(format string, args ...any)) int {
	recs := PendingOps(dir)
	for _, path := range spools(dir) {
		_ = os.Remove(path)
	}
	if logf != nil {
		for _, rec := range recs {
			logf("failover: aborted pending import of session %d (owner %s epoch %d)", rec.Session, rec.Owner, rec.Epoch)
		}
	}
	return len(recs)
}

func spools(dir string) []string {
	if dir == "" {
		return nil
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "mig-*.spool"))
	return matches
}

func mustEncode(v any) []byte {
	b, err := ckptlog.EncodePayload(v)
	if err != nil {
		// Spool payloads are plain structs of bytes, ints and strings;
		// gob cannot fail on them.
		panic(err)
	}
	return b
}
