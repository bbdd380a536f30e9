package ckptlog

// This file generalizes the journal's physical layer — the CRC-framed
// record format and its torn/corrupt classification — into an exported
// codec that other durable subsystems reuse: the control-plane store's
// keyed WAL (internal/ctrlplane) and the migration wire protocol and
// chunk spool (internal/failover) share this exact frame layout, so one
// fuzzer-hardened decoder backs the checkpoint journal, the cluster
// store and migration, and all inherit the same recovery discipline
// (truncate torn tails, quarantine corrupt payloads, never panic on
// disk or wire bytes).

// RawFrame is one CRC-framed record as seen by an external client of
// the codec: Kind is the client-defined record type (must be non-zero —
// a zeroed frame can never masquerade as a real record), ID an opaque
// owner identifier (the journal uses the context ID; the cluster store
// leaves it 0), Seq the client's monotonic sequence number, and Payload
// the record body, integrity-checked separately from the header.
type RawFrame struct {
	Kind    uint8
	ID      int64
	Seq     uint64
	Payload []byte
}

// FrameResult classifies one DecodeRawFrame attempt, mirroring the
// journal's internal decode classification.
type FrameResult int

const (
	// FrameOK: a complete, fully verified frame.
	FrameOK FrameResult = iota
	// FrameTorn: the data ends mid-frame or the header is corrupt; the
	// extent of the frame is unknowable, so everything from its start
	// is a torn tail (truncate, never fatal).
	FrameTorn
	// FrameCorrupt: the header verified but the payload did not — the
	// record's owner can be quarantined and scanning can continue at
	// the next frame (n is valid).
	FrameCorrupt
)

// EncodeRawFrame appends the framed record to buf and returns it. The
// layout is the journal's: magic, kind, id, seq, length, header CRC-32C,
// payload, payload CRC-32C (see the frame layout comment in ckptlog.go).
func EncodeRawFrame(buf []byte, f RawFrame) []byte {
	return encodeFrame(buf, frame{Type: RecType(f.Kind), Ctx: f.ID, Seq: f.Seq, Payload: f.Payload})
}

// DecodeRawFrame decodes one frame from data. n is the number of bytes
// consumed (0 when torn). It never panics on arbitrary input — the
// decoder is fuzz-hardened by the journal's recovery fuzzer, the
// control-plane store's and the migration decoder's.
func DecodeRawFrame(data []byte) (f RawFrame, n int, res FrameResult) {
	fr, n, r := decodeFrame(data)
	f = RawFrame{Kind: uint8(fr.Type), ID: fr.Ctx, Seq: fr.Seq, Payload: fr.Payload}
	switch r {
	case decodeTorn:
		return f, n, FrameTorn
	case decodeCorruptPayload:
		return f, n, FrameCorrupt
	}
	return f, n, FrameOK
}
