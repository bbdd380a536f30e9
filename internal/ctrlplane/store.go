// Package ctrlplane is the daemon's crash-resumable control plane: a
// transactional embedded cluster store holding tenants, quotas, device
// and node membership, plus a pending-operation engine that makes every
// mutating administrative action survive daemon crashes.
//
// The store generalizes the checkpoint journal's durability discipline
// (DESIGN.md §9) from per-context images to an arbitrary keyed state
// space: commits are CRC-framed transaction records appended to a WAL
// (one frame per transaction, so a multi-key commit is atomic by
// construction), folded periodically into a snapshot via write-temp +
// fsync + atomic rename, with a sequence fence making replay idempotent
// across a compaction crash. Recovery truncates torn tails and
// quarantines (skips and counts) records whose payload fails its CRC —
// the same classification the journal's recovery applies, via the same
// exported frame codec (ckptlog.DecodeRawFrame).
//
// On top of the store, ops.go models every mutation as a journaled
// pending operation (heketi's pending-operations pattern): recorded
// before execution, executed in idempotent steps, committed together
// with the removal of its pending record, and on daemon restart either
// resumed or rolled back and quarantined.
package ctrlplane

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"gvrt/internal/ckptlog"
	"gvrt/internal/faultinject"
)

// File names inside a store directory.
const (
	snapName = "store.snap"
	walName  = "store.wal"
)

// DefaultCompactBytes is the WAL growth (bytes appended since the last
// compaction) that triggers an automatic compaction.
const DefaultCompactBytes = 1 << 20

// Record kinds inside the store's frames. Zero is invalid so a zeroed
// frame can never masquerade as a record.
const (
	kindHeader uint8 = iota + 1 // snapshot header (payload: headerRec)
	kindEntry                   // snapshot key/value entry (payload: kvRec)
	kindTxn                     // WAL transaction (payload: txnRec)
)

// headerRec opens a snapshot file; AppliedSeq is the sequence fence:
// every WAL record with Seq <= AppliedSeq is already folded into the
// snapshot and replays as a no-op.
type headerRec struct {
	AppliedSeq uint64
	Keys       int
}

// kvRec is one snapshot entry.
type kvRec struct {
	Key string
	Val []byte
}

// txnRec is one committed transaction: all puts and deletes applied
// atomically (they travel in one frame, so a crash either keeps the
// whole transaction or none of it).
type txnRec struct {
	Puts    []kvRec
	Deletes []string
}

// Txn is a batch of mutations committed atomically.
type Txn struct {
	rec txnRec
}

// Put stages a key write.
func (t *Txn) Put(key string, val []byte) *Txn {
	t.rec.Puts = append(t.rec.Puts, kvRec{Key: key, Val: append([]byte(nil), val...)})
	return t
}

// Delete stages a key removal.
func (t *Txn) Delete(key string) *Txn {
	t.rec.Deletes = append(t.rec.Deletes, key)
	return t
}

// empty reports whether the transaction stages nothing.
func (t *Txn) empty() bool { return len(t.rec.Puts) == 0 && len(t.rec.Deletes) == 0 }

// Event describes one committed transaction to a store watcher, or —
// when Kind is non-empty — a synthetic event injected onto the stream
// (SLO burn-rate transitions). Synthetic events carry no Seq: they are
// liveness signals, not store state.
type Event struct {
	// Seq is the commit's sequence number (0 for synthetic events).
	Seq uint64 `json:"seq"`
	// Puts / Deletes list the affected keys.
	Puts    []string `json:"puts,omitempty"`
	Deletes []string `json:"deletes,omitempty"`
	// Kind tags a synthetic event ("slo"); empty for commits.
	Kind string `json:"kind,omitempty"`
	// Detail is the synthetic event's JSON payload.
	Detail json.RawMessage `json:"detail,omitempty"`
}

// Options tunes a Store.
type Options struct {
	// Faults, when set, arms the store's crash points (pre-fsync,
	// post-fsync, mid-compaction) against the deterministic fault plane.
	Faults *faultinject.Plane
	// OnCrash is invoked when an armed crash point fires. Nil ignores
	// crash decisions; daemons install ckptlog.Die so an armed point
	// kills the process exactly as a power loss would.
	OnCrash func()
	// CompactBytes is the auto-compaction threshold; 0 means
	// DefaultCompactBytes, negative disables auto-compaction.
	CompactBytes int64
	// Logf, when set, receives store events (compactions, recovery
	// repairs, quarantined records).
	Logf func(format string, args ...any)
}

// Stats is a snapshot of a store's counters.
type Stats struct {
	// Commits is the number of transactions committed this run.
	Commits int64 `json:"commits"`
	// Syncs is the number of fsync barriers issued.
	Syncs int64 `json:"syncs"`
	// Bytes is the number of WAL bytes appended this run.
	Bytes int64 `json:"bytes"`
	// Compactions counts snapshot compactions completed this run.
	Compactions int64 `json:"compactions"`
	// TornBytes is the torn-tail length truncated during recovery.
	TornBytes int64 `json:"torn_bytes"`
	// Quarantined counts WAL records skipped during recovery because
	// their payload failed its CRC or did not decode.
	Quarantined int64 `json:"quarantined"`
	// Keys is the number of keys currently held.
	Keys int `json:"keys"`
}

// Store is an open control-plane store: the WAL file plus the in-memory
// mirror of the keyed state it encodes. Safe for concurrent use; one
// mutex serialises commits so transactions land in a total order.
type Store struct {
	dir  string
	opts Options

	preSync  *faultinject.Hook
	postSync *faultinject.Hook
	compact  *faultinject.Hook

	mu       sync.Mutex
	f        *os.File
	seq      uint64
	applied  uint64 // sequence fence of the current snapshot
	kv       map[string][]byte
	dead     bool // a persistent write error; commits fail loudly
	appended int64
	stats    Stats

	watchMu  sync.Mutex
	watchers map[int]chan Event
	nextW    int
}

// Open opens (creating if absent) the store in dir, recovering its
// state from the snapshot and WAL. A torn WAL tail is truncated; a
// record with an intact header but corrupt payload is quarantined
// (skipped and counted) and the scan continues. Only a corrupt snapshot
// header is unrecoverable, because it carries the sequence fence.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ctrlplane: creating store dir: %w", err)
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		kv:       make(map[string][]byte),
		watchers: make(map[int]chan Event),
	}
	s.preSync = opts.Faults.Hook(faultinject.PointStorePreSync, "")
	s.postSync = opts.Faults.Hook(faultinject.PointStorePostSync, "")
	s.compact = opts.Faults.Hook(faultinject.PointStoreCompact, "")

	if err := s.recoverSnapshot(); err != nil {
		return nil, err
	}
	if err := s.recoverWAL(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: opening WAL: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("ctrlplane: seeking WAL: %w", err)
	}
	s.f = f
	return s, nil
}

// ErrCorruptSnapshot reports an unrecoverable snapshot header: the
// sequence fence is gone, so replaying the WAL over a fresh mirror
// could double-apply folded records. Operators must restore the
// directory or move it aside.
var ErrCorruptSnapshot = fmt.Errorf("ctrlplane: store snapshot header corrupt")

// recoverSnapshot loads the snapshot file into the mirror.
func (s *Store) recoverSnapshot() error {
	data, err := os.ReadFile(filepath.Join(s.dir, snapName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("ctrlplane: reading snapshot: %w", err)
	}
	if len(data) == 0 {
		return nil
	}
	f, n, res := ckptlog.DecodeRawFrame(data)
	if res != ckptlog.FrameOK || f.Kind != kindHeader {
		return ErrCorruptSnapshot
	}
	var hdr headerRec
	if err := ckptlog.DecodePayload(f.Payload, &hdr); err != nil {
		return ErrCorruptSnapshot
	}
	s.applied = hdr.AppliedSeq
	s.seq = hdr.AppliedSeq
	data = data[n:]
	for len(data) > 0 {
		f, n, res := ckptlog.DecodeRawFrame(data)
		switch res {
		case ckptlog.FrameTorn:
			// A snapshot is written whole and renamed into place; a torn
			// entry means the file was damaged after the fact. The entries
			// already decoded are good; the rest are lost.
			s.stats.TornBytes += int64(len(data))
			s.logf("snapshot torn after %d keys; %d bytes dropped", len(s.kv), len(data))
			return nil
		case ckptlog.FrameCorrupt:
			s.stats.Quarantined++
			s.logf("snapshot entry quarantined (payload CRC)")
			data = data[n:]
			continue
		}
		if f.Kind == kindEntry {
			var kv kvRec
			if err := ckptlog.DecodePayload(f.Payload, &kv); err != nil {
				s.stats.Quarantined++
				s.logf("snapshot entry quarantined (decode: %v)", err)
			} else {
				s.kv[kv.Key] = kv.Val
			}
		}
		data = data[n:]
	}
	return nil
}

// recoverWAL replays the WAL over the mirror, truncating a torn tail.
func (s *Store) recoverWAL() error {
	path := filepath.Join(s.dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("ctrlplane: reading WAL: %w", err)
	}
	off := 0
	for off < len(data) {
		f, n, res := ckptlog.DecodeRawFrame(data[off:])
		if res == ckptlog.FrameTorn {
			torn := int64(len(data) - off)
			s.stats.TornBytes += torn
			s.logf("WAL torn tail: truncating %d bytes (interrupted write)", torn)
			if err := os.Truncate(path, int64(off)); err != nil {
				return fmt.Errorf("ctrlplane: truncating torn WAL tail: %w", err)
			}
			break
		}
		if res == ckptlog.FrameCorrupt {
			// The frame's extent is known but its content is gone. For a
			// keyed store the affected keys are unknowable, so the record
			// is quarantined as a unit: skipped, counted, reported.
			s.stats.Quarantined++
			s.logf("WAL record seq %d quarantined (payload CRC)", f.Seq)
			off += n
			continue
		}
		if f.Seq > s.seq {
			s.seq = f.Seq
		}
		if f.Kind == kindTxn && f.Seq > s.applied {
			var txn txnRec
			if err := ckptlog.DecodePayload(f.Payload, &txn); err != nil {
				s.stats.Quarantined++
				s.logf("WAL record seq %d quarantined (decode: %v)", f.Seq, err)
			} else {
				s.applyLocked(txn)
			}
		}
		off += n
	}
	s.appended = int64(off)
	return nil
}

// applyLocked applies a transaction to the mirror. Caller holds s.mu
// (or is in single-threaded recovery).
func (s *Store) applyLocked(t txnRec) {
	for _, kv := range t.Puts {
		s.kv[kv.Key] = kv.Val
	}
	for _, k := range t.Deletes {
		delete(s.kv, k)
	}
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Healthy reports whether the store can still commit (no persistent
// write error, not closed).
func (s *Store) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f != nil && !s.dead
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Keys = len(s.kv)
	return st
}

// Seq returns the latest committed sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Get returns the value stored under key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.kv[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// List returns every key with the given prefix, sorted, with values.
func (s *Store) List(prefix string) []KV {
	s.mu.Lock()
	var out []KV
	for k, v := range s.kv {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, KV{Key: k, Val: append([]byte(nil), v...)})
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// KV is one listed key/value pair.
type KV struct {
	Key string
	Val []byte
}

// Commit durably applies the transaction: one CRC-framed record
// appended and fsynced (through the armed crash points), then applied
// to the mirror and broadcast to watchers. The multi-key atomicity is
// physical — the puts and deletes travel in a single frame, so recovery
// sees all of them or none.
func (s *Store) Commit(t *Txn) error {
	if t.empty() {
		return nil
	}
	payload, err := ckptlog.EncodePayload(t.rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.dead || s.f == nil {
		s.mu.Unlock()
		return fmt.Errorf("ctrlplane: store dead after earlier write error")
	}
	s.seq++
	seq := s.seq
	buf := ckptlog.EncodeRawFrame(nil, ckptlog.RawFrame{Kind: kindTxn, Seq: seq, Payload: payload})
	if _, err := s.f.Write(buf); err != nil {
		s.dead = true
		s.mu.Unlock()
		return fmt.Errorf("ctrlplane: appending commit (store now dead): %w", err)
	}
	s.appended += int64(len(buf))
	s.stats.Bytes += int64(len(buf))
	s.crashPoint(s.preSync)
	if err := s.f.Sync(); err != nil {
		s.dead = true
		s.mu.Unlock()
		return fmt.Errorf("ctrlplane: fsync (store now dead): %w", err)
	}
	s.stats.Syncs++
	s.crashPoint(s.postSync)
	s.applyLocked(t.rec)
	s.stats.Commits++
	ev := Event{Seq: seq}
	for _, kv := range t.rec.Puts {
		ev.Puts = append(ev.Puts, kv.Key)
	}
	ev.Deletes = append(ev.Deletes, t.rec.Deletes...)
	limit := s.opts.CompactBytes
	if limit == 0 {
		limit = DefaultCompactBytes
	}
	needCompact := limit > 0 && s.appended >= limit
	s.mu.Unlock()

	s.broadcast(ev)
	if needCompact {
		if err := s.Compact(); err != nil {
			s.logf("auto-compaction failed: %v", err)
		}
	}
	return nil
}

// Compact folds the WAL into a fresh snapshot: mirror written to a
// temporary file, fsynced, atomically renamed over the snapshot, WAL
// truncated. A crash at either armed boundary leaves either the old
// state (before the rename) or the new state (after it), never a mix:
// the snapshot header's sequence fence makes already-folded WAL records
// no-ops on replay.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead || s.f == nil {
		return fmt.Errorf("ctrlplane: store dead")
	}
	if err := s.f.Sync(); err != nil {
		s.dead = true
		return fmt.Errorf("ctrlplane: pre-compaction fsync: %w", err)
	}
	hdr, err := ckptlog.EncodePayload(headerRec{AppliedSeq: s.seq, Keys: len(s.kv)})
	if err != nil {
		return err
	}
	buf := ckptlog.EncodeRawFrame(nil, ckptlog.RawFrame{Kind: kindHeader, Seq: s.seq, Payload: hdr})
	keys := make([]string, 0, len(s.kv))
	for k := range s.kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		payload, err := ckptlog.EncodePayload(kvRec{Key: k, Val: s.kv[k]})
		if err != nil {
			return err
		}
		buf = ckptlog.EncodeRawFrame(buf, ckptlog.RawFrame{Kind: kindEntry, Seq: s.seq, Payload: payload})
	}
	// Crash point 1 runs inside InstallFile once the temp is written and
	// durable, before the rename: a crash there recovers from the OLD
	// snapshot + full WAL.
	if err := ckptlog.InstallFile(filepath.Join(s.dir, snapName), ckptlog.WriteBytes(buf), func() { s.crashPoint(s.compact) }); err != nil {
		return fmt.Errorf("ctrlplane: installing snapshot: %w", err)
	}

	// Crash point 2: new snapshot installed, WAL not yet truncated. A
	// crash here recovers from the NEW snapshot; the WAL's stale records
	// sit below the sequence fence and replay as no-ops.
	s.crashPoint(s.compact)

	if err := s.f.Truncate(0); err != nil {
		s.dead = true
		return fmt.Errorf("ctrlplane: truncating WAL: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		s.dead = true
		return fmt.Errorf("ctrlplane: rewinding WAL: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		s.dead = true
		return fmt.Errorf("ctrlplane: syncing truncated WAL: %w", err)
	}
	s.applied = s.seq
	s.appended = 0
	s.stats.Compactions++
	s.logf("store compacted: %d keys, fence seq %d", len(s.kv), s.applied)
	return nil
}

// Close syncs and closes the store. The files remain for the next Open.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return nil
	}
	var serr error
	if !s.dead {
		serr = s.f.Sync()
	}
	cerr := s.f.Close()
	s.f = nil
	s.dead = true
	s.mu.Unlock()

	s.watchMu.Lock()
	for id, ch := range s.watchers {
		close(ch)
		delete(s.watchers, id)
	}
	s.watchMu.Unlock()
	if serr != nil {
		return serr
	}
	return cerr
}

// Subscribe registers a watcher fed one Event per committed
// transaction. The channel is buffered; a watcher that falls more than
// buf events behind loses the oldest (watchers observe liveness, the
// store itself is the source of truth). cancel unregisters and closes
// the channel; Close closes every watcher's channel.
func (s *Store) Subscribe(buf int) (ch <-chan Event, cancel func()) {
	if buf <= 0 {
		buf = 64
	}
	c := make(chan Event, buf)
	s.watchMu.Lock()
	id := s.nextW
	s.nextW++
	if s.watchers == nil {
		s.watchers = make(map[int]chan Event)
	}
	s.watchers[id] = c
	s.watchMu.Unlock()
	return c, func() {
		s.watchMu.Lock()
		if c, ok := s.watchers[id]; ok {
			delete(s.watchers, id)
			close(c)
		}
		s.watchMu.Unlock()
	}
}

// Inject broadcasts a synthetic event to every watcher without
// touching the store: the observability plane uses it to push SLO
// burn-rate transitions onto the same /events stream commits ride.
func (s *Store) Inject(ev Event) {
	s.broadcast(ev)
}

// Watchers reports how many subscribers are currently registered — the
// observable the SSE reap path is tested against.
func (s *Store) Watchers() int {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return len(s.watchers)
}

// broadcast fans one commit event out to every watcher, dropping the
// oldest buffered event for a slow one.
func (s *Store) broadcast(ev Event) {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	for _, ch := range s.watchers {
		for {
			select {
			case ch <- ev:
			default:
				select {
				case <-ch:
					continue // dropped the oldest; retry
				default:
				}
			}
			break
		}
	}
}

// crashPoint consults an armed crash hook and, when it fires, invokes
// the configured OnCrash. With the production OnCrash (ckptlog.Die)
// this call never returns.
func (s *Store) crashPoint(h *faultinject.Hook) {
	if h == nil {
		return
	}
	if h.Check().Crash && s.opts.OnCrash != nil {
		s.opts.OnCrash()
	}
}

// logf emits a store event when configured.
func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}
