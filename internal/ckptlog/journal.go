package ckptlog

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
	"gvrt/internal/memmgr"
)

// File names inside a journal directory.
const (
	snapshotName = "snapshot.ckpt"
	journalName  = "journal.wal"
	tmpName      = snapshotName + ".tmp" // InstallFile's temp name
)

// DefaultCompactBytes is the journal growth (bytes appended since the
// last compaction) that triggers an automatic compaction.
const DefaultCompactBytes = 4 << 20

// Options tunes a Journal.
type Options struct {
	// Faults, when set, arms the journal's crash points (pre-fsync,
	// post-fsync, mid-compaction) against the deterministic fault plane.
	Faults *faultinject.Plane
	// OnCrash is invoked when an armed crash point fires. Nil ignores
	// crash decisions (library users); daemons install Die so an armed
	// point kills the process exactly as a power loss would.
	OnCrash func()
	// CompactBytes is the auto-compaction threshold; 0 means
	// DefaultCompactBytes, negative disables auto-compaction.
	CompactBytes int64
	// Logf, when set, receives journal events (compactions, recovery
	// repairs, quarantines).
	Logf func(format string, args ...any)
}

// Die is the production OnCrash: SIGKILL the process. No deferred
// function, no flush, no signal handler runs — the closest a process
// can get to losing power at the armed boundary.
func Die() {
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable; SIGKILL cannot be handled
}

// Stats is a snapshot of a journal's counters.
type Stats struct {
	// Records is the number of records appended this run.
	Records int64
	// Syncs is the number of fsync barriers issued.
	Syncs int64
	// Bytes is the number of journal bytes appended this run.
	Bytes int64
	// Compactions counts snapshot compactions completed this run.
	Compactions int64
	// TornBytes is the torn-tail length truncated during recovery.
	TornBytes int64
	// Quarantined counts context images quarantined during recovery.
	Quarantined int64
	// Contexts is the number of contexts currently mirrored.
	Contexts int
}

// mirrorCtx is one context's durable state inside the in-memory mirror.
type mirrorCtx struct {
	nextOff uint64
	entries map[api.DevPtr]memmgr.EntryImage
	pending []api.LaunchCall
}

// Journal is an open checkpoint journal: an append-only record log plus
// the in-memory mirror of the state it encodes. The mirror is what
// compaction snapshots and what Open returns after recovery — journal
// bytes are written through it, never parsed back during normal
// operation.
//
// A Journal is safe for concurrent use; one mutex serialises appends so
// records land in a total order.
type Journal struct {
	dir  string
	opts Options

	preSync  *faultinject.Hook
	postSync *faultinject.Hook
	compact  *faultinject.Hook

	mu       sync.Mutex
	f        *os.File
	seq      uint64
	applied  uint64 // sequence fence of the current snapshot
	mirror   map[int64]*mirrorCtx
	dead     bool // a persistent write error; appends become no-ops
	appended int64
	stats    Stats
}

// logf emits a journal event when configured.
func (j *Journal) logf(format string, args ...any) {
	if j.opts.Logf != nil {
		j.opts.Logf(format, args...)
	}
}

// crashPoint consults an armed crash hook and, when it fires, invokes
// the configured OnCrash. With the production OnCrash (Die) this call
// never returns.
func (j *Journal) crashPoint(h *faultinject.Hook) {
	if h == nil {
		return
	}
	if h.Check().Crash && j.opts.OnCrash != nil {
		j.opts.OnCrash()
	}
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Healthy reports whether the journal can still persist commits: false
// after a persistent write error or Close. The operator plane's
// /healthz readiness probe keys off it.
func (j *Journal) Healthy() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.dead
}

// Stats returns a snapshot of the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.stats
	s.Contexts = len(j.mirror)
	return s
}

// HasContext reports whether the mirror currently tracks ctxID — used
// by the runtime's journal attach to avoid re-snapshotting state that
// recovery already restored.
func (j *Journal) HasContext(ctxID int64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.mirror[ctxID]
	return ok
}

// ctx returns (creating if needed) the mirror state for ctxID.
func (j *Journal) ctx(ctxID int64) *mirrorCtx {
	mc := j.mirror[ctxID]
	if mc == nil {
		mc = &mirrorCtx{entries: make(map[api.DevPtr]memmgr.EntryImage)}
		j.mirror[ctxID] = mc
	}
	return mc
}

// append frames and writes one record, applying it to the mirror. The
// caller holds j.mu. A dead journal drops the record silently — the
// failure was already reported loudly on the append that killed it.
func (j *Journal) append(t RecType, ctxID int64, payload []byte) error {
	if j.dead {
		return fmt.Errorf("ckptlog: journal dead after earlier write error: %w", api.ErrJournalFailure)
	}
	j.seq++
	buf := encodeFrame(nil, frame{Type: t, Ctx: ctxID, Seq: j.seq, Payload: payload})
	if _, err := j.f.Write(buf); err != nil {
		j.dead = true
		j.logf("journal write failed (journal now dead): %v", err)
		return fmt.Errorf("ckptlog: appending %s: %v: %w", t, err, api.ErrJournalFailure)
	}
	j.appended += int64(len(buf))
	j.stats.Records++
	j.stats.Bytes += int64(len(buf))
	return nil
}

// sync runs the fsync barrier with its two crash points.
func (j *Journal) sync() error {
	if j.dead {
		return fmt.Errorf("ckptlog: journal dead: %w", api.ErrJournalFailure)
	}
	j.crashPoint(j.preSync)
	if err := j.f.Sync(); err != nil {
		j.dead = true
		j.logf("journal fsync failed (journal now dead): %v", err)
		return fmt.Errorf("ckptlog: fsync: %v: %w", err, api.ErrJournalFailure)
	}
	j.stats.Syncs++
	j.crashPoint(j.postSync)
	return nil
}

// maybeCompact runs a compaction when the journal grew past the
// threshold. The caller holds j.mu.
func (j *Journal) maybeCompact() {
	limit := j.opts.CompactBytes
	if limit == 0 {
		limit = DefaultCompactBytes
	}
	if limit < 0 || j.appended < limit {
		return
	}
	if err := j.compactLocked(); err != nil {
		j.logf("auto-compaction failed: %v", err)
	}
}

// ContextCreated records a context coming into existence. Not a commit
// point: an empty context that was never synced is not worth recovering.
func (j *Journal) ContextCreated(ctxID int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ctx(ctxID)
	_ = j.append(RecContextCreated, ctxID, nil)
}

// ContextReleased records an orderly context teardown and discards its
// durable state. It is a commit point (synced): after an acknowledged
// exit the session must not resurrect on restart. The method name
// matches memmgr.Observer.
func (j *Journal) ContextReleased(ctxID int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.mirror[ctxID]; !ok {
		return
	}
	delete(j.mirror, ctxID)
	if err := j.append(RecContextDestroyed, ctxID, nil); err != nil {
		return
	}
	_ = j.sync()
	j.maybeCompact()
}

// EntryWritten records one page-table entry's new swap-side state. Not
// individually synced: the next commit record's fsync makes it durable
// (prefix durability). The signature matches memmgr.Observer.
func (j *Journal) EntryWritten(ctxID int64, e memmgr.EntryImage, nextOff uint64) {
	payload, err := EncodePayload(entryRecord{Entry: e, NextOff: nextOff})
	if err != nil {
		j.logf("entry-written encode failed: %v", err)
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	mc := j.ctx(ctxID)
	mc.entries[e.Virtual] = e
	if nextOff > mc.nextOff {
		mc.nextOff = nextOff
	}
	_ = j.append(RecEntryWritten, ctxID, payload)
}

// EntryFreed records a page-table entry de-allocation. The signature
// matches memmgr.Observer.
func (j *Journal) EntryFreed(ctxID int64, virtual api.DevPtr) {
	payload, err := EncodePayload(freeRecord{Virtual: virtual})
	if err != nil {
		j.logf("entry-freed encode failed: %v", err)
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if mc := j.mirror[ctxID]; mc != nil {
		delete(mc.entries, virtual)
	}
	_ = j.append(RecEntryFreed, ctxID, payload)
}

// KernelCommitted records an acknowledged kernel launch. It is THE
// write-ahead commit point: the record (and by fsync ordering every
// mutation record before it) is durable before this returns, so the
// runtime may acknowledge the launch to the client knowing a crash
// cannot lose it. An error means the launch must not be acknowledged.
func (j *Journal) KernelCommitted(ctxID int64, call api.LaunchCall) error {
	payload, err := EncodePayload(kernelRecord{Call: call})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	mc := j.ctx(ctxID)
	if err := j.append(RecKernelCommitted, ctxID, payload); err != nil {
		return err
	}
	if err := j.sync(); err != nil {
		return err
	}
	mc.pending = append(mc.pending, call)
	j.maybeCompact()
	return nil
}

// CheckpointMark records a checkpoint boundary: the entry-written
// records appended before it capture the context's full device state,
// so the pending kernel list resets. Synced — a checkpoint the client
// saw succeed must hold after a crash.
func (j *Journal) CheckpointMark(ctxID int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	mc := j.ctx(ctxID)
	if err := j.append(RecCheckpoint, ctxID, nil); err != nil {
		return err
	}
	if err := j.sync(); err != nil {
		return err
	}
	mc.pending = mc.pending[:0]
	j.maybeCompact()
	return nil
}

// SnapshotContext installs a context's complete state at once (journal
// attach over a live runtime, RestoreState import). Synced.
func (j *Journal) SnapshotContext(img *memmgr.ContextImage, pending []api.LaunchCall) error {
	payload, err := EncodePayload(imageRecord{Image: *img, Pending: pending})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.append(RecImage, img.CtxID, payload); err != nil {
		return err
	}
	if err := j.sync(); err != nil {
		return err
	}
	j.applyImage(img.CtxID, imageRecord{Image: *img, Pending: pending})
	return nil
}

// applyImage replaces a context's mirror state with a full image.
func (j *Journal) applyImage(ctxID int64, rec imageRecord) {
	mc := &mirrorCtx{
		nextOff: rec.Image.NextOff,
		entries: make(map[api.DevPtr]memmgr.EntryImage, len(rec.Image.Entries)),
		pending: rec.Pending,
	}
	for _, e := range rec.Image.Entries {
		mc.entries[e.Virtual] = e
	}
	j.mirror[ctxID] = mc
}

// Sync forces an fsync barrier: every record appended so far is durable
// when it returns.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sync()
}

// imageOf builds the ContextImage for one mirrored context, entries in
// ascending virtual-address order (deterministic output).
func (mc *mirrorCtx) imageOf(ctxID int64) *memmgr.ContextImage {
	img := &memmgr.ContextImage{CtxID: ctxID, NextOff: mc.nextOff}
	ptrs := make([]api.DevPtr, 0, len(mc.entries))
	for v := range mc.entries {
		ptrs = append(ptrs, v)
	}
	sort.Slice(ptrs, func(i, k int) bool { return ptrs[i] < ptrs[k] })
	for _, v := range ptrs {
		img.Entries = append(img.Entries, mc.entries[v])
	}
	return img
}

// Compact folds the journal into a fresh snapshot: the mirror is
// written to a temporary file, fsynced, atomically renamed over the
// snapshot, and the journal truncated. A crash at any boundary —
// including the two armed mid-compaction crash points — leaves either
// the old state (before the rename) or the new state (after it), never
// a mix: the snapshot header's sequence fence makes journal records
// already folded into the renamed snapshot no-ops on replay.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compactLocked()
}

func (j *Journal) compactLocked() error {
	if j.dead {
		return fmt.Errorf("ckptlog: journal dead: %w", api.ErrJournalFailure)
	}
	// The snapshot must not outrun the journal: sync first so the fence
	// covers only records that are actually durable.
	if err := j.sync(); err != nil {
		return err
	}
	hdrPayload, err := EncodePayload(headerRecord{AppliedSeq: j.seq, Contexts: len(j.mirror)})
	if err != nil {
		return err
	}
	buf := encodeFrame(nil, frame{Type: RecSnapshotHeader, Seq: j.seq, Payload: hdrPayload})
	ids := make([]int64, 0, len(j.mirror))
	for id := range j.mirror {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	for _, id := range ids {
		mc := j.mirror[id]
		payload, err := EncodePayload(imageRecord{Image: *mc.imageOf(id), Pending: mc.pending})
		if err != nil {
			return err
		}
		buf = encodeFrame(buf, frame{Type: RecImage, Ctx: id, Seq: j.seq, Payload: payload})
	}
	// Crash point 1 runs inside InstallFile once the temp is written and
	// durable, before the rename: a crash there recovers from the OLD
	// snapshot + full journal.
	if err := InstallFile(filepath.Join(j.dir, snapshotName), WriteBytes(buf), func() { j.crashPoint(j.compact) }); err != nil {
		return fmt.Errorf("ckptlog: installing snapshot: %w", err)
	}

	// Crash point 2: new snapshot installed, journal not yet truncated.
	// A crash here recovers from the NEW snapshot; the journal's stale
	// records sit below the sequence fence and replay as no-ops.
	j.crashPoint(j.compact)

	if err := j.f.Truncate(0); err != nil {
		j.dead = true
		return fmt.Errorf("ckptlog: truncating journal: %v: %w", err, api.ErrJournalFailure)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		j.dead = true
		return fmt.Errorf("ckptlog: rewinding journal: %v: %w", err, api.ErrJournalFailure)
	}
	if err := j.f.Sync(); err != nil {
		j.dead = true
		return fmt.Errorf("ckptlog: syncing truncated journal: %v: %w", err, api.ErrJournalFailure)
	}
	j.applied = j.seq
	j.appended = 0
	j.stats.Compactions++
	j.logf("journal compacted: %d contexts, fence seq %d", len(j.mirror), j.applied)
	return nil
}

// Close syncs and closes the journal. The files remain, ready for the
// next Open.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	serr := j.sync()
	cerr := j.f.Close()
	j.f = nil
	j.dead = true
	if serr != nil {
		return serr
	}
	return cerr
}
