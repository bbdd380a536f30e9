package ckptlog

import (
	"fmt"
	"os"
	"path/filepath"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
	"gvrt/internal/memmgr"
)

// Quarantine describes one context image recovery could not restore.
type Quarantine struct {
	// CtxID is the owning context, or 0 when even the owner is
	// unknowable (a corrupt snapshot region).
	CtxID int64
	// Where locates the damage ("snapshot" or "journal").
	Where string
	// Reason says what failed (payload CRC, record decode, ...).
	Reason string
}

// String implements fmt.Stringer.
func (q Quarantine) String() string {
	if q.CtxID == 0 {
		return fmt.Sprintf("%s: %s", q.Where, q.Reason)
	}
	return fmt.Sprintf("ctx %d (%s): %s", q.CtxID, q.Where, q.Reason)
}

// Recovered is what Open reconstructed from disk.
type Recovered struct {
	// Images are the restored context images, ascending by context ID.
	Images []*memmgr.ContextImage
	// Pending maps a context to the kernels committed after its last
	// checkpoint; the runtime replays them on resume to regenerate the
	// device-only state the crash destroyed (§4.6).
	Pending map[int64][]api.LaunchCall
	// Quarantined lists the context images dropped as corrupt. Their
	// sessions are lost; everything else was restored.
	Quarantined []Quarantine
	// TornBytes is the length of the torn journal tail that was
	// truncated (0 on a clean shutdown).
	TornBytes int64
	// MaxCtxID is the highest context ID seen anywhere in the log —
	// including quarantined and destroyed contexts — so a recovering
	// runtime can keep allocating IDs above every ID ever issued.
	MaxCtxID int64
}

// ErrCorruptSnapshot reports an unrecoverable snapshot: its header —
// which carries the sequence fence that keeps journal replay idempotent
// — is missing or corrupt. Unlike a torn journal tail or a corrupt
// per-context image, this cannot be repaired locally; the operator must
// intervene (restore the file or accept a fresh start).
var ErrCorruptSnapshot = fmt.Errorf("ckptlog: snapshot header corrupt: %w", api.ErrInvalidValue)

// Open opens (creating if absent) the journal directory, recovers the
// state it holds, and returns the journal ready for appends plus what
// was recovered.
//
// Repairs are automatic and loud, never fatal: a torn journal tail is
// truncated, a context image whose payload fails its CRC or decode is
// quarantined while every other context is restored. The one fatal
// corruption is the snapshot header (see ErrCorruptSnapshot).
func Open(dir string, opts Options) (*Journal, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("ckptlog: creating journal dir: %w", err)
	}
	// A leftover temp snapshot is a compaction that died before its
	// rename: the old snapshot + journal are authoritative.
	if err := os.Remove(filepath.Join(dir, tmpName)); err == nil && opts.Logf != nil {
		opts.Logf("removed interrupted compaction temp")
	}

	j := &Journal{
		dir:      dir,
		opts:     opts,
		preSync:  opts.Faults.Hook(faultinject.PointJournalPreSync, ""),
		postSync: opts.Faults.Hook(faultinject.PointJournalPostSync, ""),
		compact:  opts.Faults.Hook(faultinject.PointJournalCompact, ""),
		mirror:   make(map[int64]*mirrorCtx),
	}
	rec := &Recovered{Pending: make(map[int64][]api.LaunchCall)}
	quarantined := make(map[int64]bool)

	if err := j.recoverSnapshot(rec, quarantined); err != nil {
		return nil, nil, err
	}
	if err := j.recoverJournal(rec, quarantined); err != nil {
		return nil, nil, err
	}

	// Drop quarantined contexts from the mirror and surface the rest.
	for id := range quarantined {
		delete(j.mirror, id)
	}
	ids := make([]int64, 0, len(j.mirror))
	for id, mc := range j.mirror {
		if len(mc.entries) == 0 && len(mc.pending) == 0 {
			// An empty context (connected, never allocated) is not worth
			// resurrecting as an orphan session; keep mirroring it so a
			// later record can still fill it in, but do not report it.
			continue
		}
		ids = append(ids, id)
	}
	sortInt64(ids)
	for _, id := range ids {
		mc := j.mirror[id]
		rec.Images = append(rec.Images, mc.imageOf(id))
		if len(mc.pending) > 0 {
			rec.Pending[id] = append([]api.LaunchCall(nil), mc.pending...)
		}
	}
	j.stats.TornBytes = rec.TornBytes
	j.stats.Quarantined = int64(len(rec.Quarantined))

	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ckptlog: opening journal: %w", err)
	}
	j.f = f
	if st, err := f.Stat(); err == nil {
		j.appended = st.Size()
	}
	return j, rec, nil
}

// recoverSnapshot loads the snapshot file into the mirror.
func (j *Journal) recoverSnapshot(rec *Recovered, quarantined map[int64]bool) error {
	data, err := os.ReadFile(filepath.Join(j.dir, snapshotName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ckptlog: reading snapshot: %w", err)
	}
	if len(data) == 0 {
		return nil
	}
	f, n, res := decodeFrame(data)
	if res != decodeOK || f.Type != RecSnapshotHeader {
		return ErrCorruptSnapshot
	}
	var hdr headerRecord
	if err := DecodePayload(f.Payload, &hdr); err != nil {
		return ErrCorruptSnapshot
	}
	j.seq = hdr.AppliedSeq
	j.applied = hdr.AppliedSeq
	data = data[n:]
	images := 0
	for len(data) > 0 {
		f, n, res := decodeFrame(data)
		switch res {
		case decodeTorn:
			// The snapshot was written with one fsync before an atomic
			// rename, so a torn region mid-snapshot is media damage, not
			// a crash artifact. The remaining images are unreadable;
			// restore what decoded and quarantine the remainder.
			rec.Quarantined = append(rec.Quarantined, Quarantine{
				Where:  "snapshot",
				Reason: fmt.Sprintf("unreadable region after %d of %d images", images, hdr.Contexts),
			})
			j.logf("snapshot: unreadable region after %d of %d images; rest quarantined", images, hdr.Contexts)
			return nil
		case decodeCorruptPayload:
			quarantined[f.Ctx] = true
			rec.Quarantined = append(rec.Quarantined, Quarantine{
				CtxID: f.Ctx, Where: "snapshot", Reason: "image payload failed CRC",
			})
			j.logf("snapshot: ctx %d image failed CRC; quarantined", f.Ctx)
			j.noteCtxID(rec, f.Ctx)
			data = data[n:]
			images++
			continue
		}
		if f.Type != RecImage {
			data = data[n:]
			continue
		}
		var ir imageRecord
		if err := DecodePayload(f.Payload, &ir); err != nil {
			quarantined[f.Ctx] = true
			rec.Quarantined = append(rec.Quarantined, Quarantine{
				CtxID: f.Ctx, Where: "snapshot", Reason: "image does not decode",
			})
			j.logf("snapshot: ctx %d image does not decode; quarantined", f.Ctx)
		} else {
			j.applyImage(f.Ctx, ir)
		}
		j.noteCtxID(rec, f.Ctx)
		data = data[n:]
		images++
	}
	return nil
}

// recoverJournal replays the journal over the snapshot state,
// truncating a torn tail and quarantining contexts whose records are
// corrupt mid-file.
func (j *Journal) recoverJournal(rec *Recovered, quarantined map[int64]bool) error {
	path := filepath.Join(j.dir, journalName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ckptlog: reading journal: %w", err)
	}
	off := 0
	for off < len(data) {
		f, n, res := decodeFrame(data[off:])
		if res == decodeTorn {
			// A crash mid-append: everything from here was never
			// acknowledged. Truncate so the next append starts on a
			// clean frame boundary.
			rec.TornBytes = int64(len(data) - off)
			j.logf("journal: torn tail of %d bytes at offset %d; truncated", rec.TornBytes, off)
			if err := os.Truncate(path, int64(off)); err != nil {
				return fmt.Errorf("ckptlog: truncating torn tail: %w", err)
			}
			break
		}
		if res == decodeCorruptPayload {
			// The header names the owner, so only that context need be
			// lost; scanning continues at the next frame.
			if !quarantined[f.Ctx] {
				quarantined[f.Ctx] = true
				rec.Quarantined = append(rec.Quarantined, Quarantine{
					CtxID: f.Ctx, Where: "journal", Reason: "record payload failed CRC",
				})
				j.logf("journal: ctx %d record failed CRC; context quarantined", f.Ctx)
			}
			j.noteCtxID(rec, f.Ctx)
			off += n
			continue
		}
		off += n
		if f.Seq <= j.applied {
			// Already folded into the snapshot (a compaction crashed
			// between its rename and the journal truncation).
			continue
		}
		if f.Seq > j.seq {
			j.seq = f.Seq
		}
		j.noteCtxID(rec, f.Ctx)
		if quarantined[f.Ctx] {
			continue
		}
		if err := j.applyRecord(f); err != nil {
			quarantined[f.Ctx] = true
			rec.Quarantined = append(rec.Quarantined, Quarantine{
				CtxID: f.Ctx, Where: "journal", Reason: err.Error(),
			})
			j.logf("journal: ctx %d record does not decode; context quarantined", f.Ctx)
		}
	}
	return nil
}

// applyRecord applies one verified journal record to the mirror.
func (j *Journal) applyRecord(f frame) error {
	switch f.Type {
	case RecImage:
		var ir imageRecord
		if err := DecodePayload(f.Payload, &ir); err != nil {
			return err
		}
		j.applyImage(f.Ctx, ir)
	case RecContextCreated:
		j.ctx(f.Ctx)
	case RecContextDestroyed:
		delete(j.mirror, f.Ctx)
	case RecEntryWritten:
		var er entryRecord
		if err := DecodePayload(f.Payload, &er); err != nil {
			return err
		}
		mc := j.ctx(f.Ctx)
		mc.entries[er.Entry.Virtual] = er.Entry
		if er.NextOff > mc.nextOff {
			mc.nextOff = er.NextOff
		}
	case RecEntryFreed:
		var fr freeRecord
		if err := DecodePayload(f.Payload, &fr); err != nil {
			return err
		}
		if mc := j.mirror[f.Ctx]; mc != nil {
			delete(mc.entries, fr.Virtual)
		}
	case RecKernelCommitted:
		var kr kernelRecord
		if err := DecodePayload(f.Payload, &kr); err != nil {
			return err
		}
		mc := j.ctx(f.Ctx)
		mc.pending = append(mc.pending, kr.Call)
	case RecCheckpoint:
		mc := j.ctx(f.Ctx)
		mc.pending = mc.pending[:0]
	default:
		// Unknown record types are skipped, not fatal: an older runtime
		// reading a newer journal loses only what it cannot understand.
	}
	return nil
}

// noteCtxID tracks the highest context ID observed anywhere in the log.
func (j *Journal) noteCtxID(rec *Recovered, id int64) {
	if id > rec.MaxCtxID {
		rec.MaxCtxID = id
	}
}

func sortInt64(ids []int64) {
	for i := 1; i < len(ids); i++ {
		for k := i; k > 0 && ids[k] < ids[k-1]; k-- {
			ids[k], ids[k-1] = ids[k-1], ids[k]
		}
	}
}
