package failover

import (
	"bytes"
	"testing"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/memmgr"
)

func TestFrameRoundTrip(t *testing.T) {
	payload, err := ckptlog.EncodePayload(Chunk{ID: ChunkID{Entry: 2, Index: 5}, Data: []byte("chunk bytes")})
	if err != nil {
		t.Fatal(err)
	}
	in := ckptlog.RawFrame{Kind: uint8(FrameChunk), ID: 42, Seq: 7, Payload: payload}
	enc := ckptlog.EncodeRawFrame(nil, in)

	out, n, ok := DecodeMessage(enc)
	if !ok || n != len(enc) {
		t.Fatalf("decode ok=%v, consumed %d of %d", ok, n, len(enc))
	}
	if out.Kind != in.Kind || out.ID != in.ID || out.Seq != in.Seq || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
	var c Chunk
	if err := ckptlog.DecodePayload(out.Payload, &c); err != nil {
		t.Fatal(err)
	}
	if c.ID != (ChunkID{Entry: 2, Index: 5}) || string(c.Data) != "chunk bytes" {
		t.Fatalf("payload round trip = %+v", c)
	}

	// Two concatenated frames decode one at a time.
	enc2 := ckptlog.EncodeRawFrame(enc, ckptlog.RawFrame{Kind: uint8(FrameCommit), ID: 42, Seq: 8})
	if _, n1, ok := DecodeMessage(enc2); !ok || n1 != len(enc) {
		t.Fatalf("first of two frames: %v, %d", ok, n1)
	}
	f2, _, ok := DecodeMessage(enc2[len(enc):])
	if !ok || FrameType(f2.Kind) != FrameCommit {
		t.Fatalf("second of two frames: %v, %+v", ok, f2)
	}
}

func TestFrameTornAndCorruptClassification(t *testing.T) {
	valid := ckptlog.EncodeRawFrame(nil, ckptlog.RawFrame{Kind: uint8(FrameHello), ID: 1, Payload: []byte("abcdef")})

	// Every strict prefix is torn, never corrupt, never accepted.
	for cut := 0; cut < len(valid); cut++ {
		if _, _, res := ckptlog.DecodeRawFrame(valid[:cut]); res != ckptlog.FrameTorn {
			t.Fatalf("prefix of %d bytes classified %v, want FrameTorn", cut, res)
		}
		if _, n, ok := DecodeMessage(valid[:cut]); ok || n != 0 {
			t.Fatalf("prefix of %d bytes accepted (n=%d)", cut, n)
		}
	}
	// A flipped byte anywhere is rejected (header magic, header CRC,
	// payload CRC — every region is covered by some checksum).
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		if _, _, ok := DecodeMessage(mut); ok {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	// An insane payload length is rejected, not a huge allocation.
	mut := append([]byte(nil), valid...)
	mut[21], mut[22], mut[23], mut[24] = 0xff, 0xff, 0xff, 0xff
	if _, _, res := ckptlog.DecodeRawFrame(mut); res == ckptlog.FrameOK {
		t.Fatal("oversized length classified FrameOK")
	}
	if _, _, ok := DecodeMessage(mut); ok {
		t.Fatal("oversized length accepted")
	}
	// An unknown or zero frame kind is rejected, though the frame itself
	// verifies.
	for _, kind := range []FrameType{FrameInvalid, FrameResult + 1} {
		bad := ckptlog.EncodeRawFrame(nil, ckptlog.RawFrame{Kind: uint8(kind), ID: 1})
		if _, _, ok := DecodeMessage(bad); ok {
			t.Fatalf("frame kind %d accepted", kind)
		}
	}
}

func TestDecodePayloadHostileBytes(t *testing.T) {
	var h Hello
	if err := ckptlog.DecodePayload([]byte("definitely not gob"), &h); err == nil {
		t.Fatal("hostile payload decoded without error")
	}
	// The gob panic-recovery path reports, never crashes.
	var n Need
	if err := ckptlog.DecodePayload([]byte{0x07, 0xff, 0x81, 0x01}, &n); err == nil {
		t.Fatal("truncated gob decoded without error")
	}
}

func TestManifestAndChunks(t *testing.T) {
	data := make([]byte, memmgr.DedupChunkSize*2+100)
	for i := range data {
		data[i] = byte(i * 13)
	}
	refs := ManifestOf(data)
	if len(refs) != 3 {
		t.Fatalf("manifest of %d bytes has %d chunks, want 3", len(data), len(refs))
	}
	if refs[2].Len != 100 {
		t.Fatalf("final short chunk len = %d, want 100", refs[2].Len)
	}
	for i, ref := range refs {
		c := ChunkAt(data, i)
		if !VerifyChunk(ref, c) {
			t.Fatalf("chunk %d does not verify against its own manifest", i)
		}
		// A corrupted byte fails verification.
		mut := append([]byte(nil), c...)
		mut[0] ^= 1
		if VerifyChunk(ref, mut) {
			t.Fatalf("chunk %d verified after corruption", i)
		}
		// Truncation fails verification.
		if VerifyChunk(ref, c[:len(c)-1]) {
			t.Fatalf("chunk %d verified after truncation", i)
		}
	}
	if ManifestOf(nil) != nil {
		t.Fatal("empty data should have an empty manifest")
	}
	if got := ChunkAt(data, 99); len(got) != 0 {
		t.Fatalf("out-of-range ChunkAt returned %d bytes", len(got))
	}
}

// FuzzDecodeFrame is the migration decoder fuzz target (hostile frames
// arriving mid-import): for any input, DecodeMessage must not panic, must
// never consume more bytes than given, and everything it accepts must
// re-encode to the identical bytes it consumed.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("GVCK"))
	valid := ckptlog.EncodeRawFrame(nil, ckptlog.RawFrame{Kind: uint8(FrameChunk), ID: 3, Seq: 9, Payload: []byte("payload")})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	mut := append([]byte(nil), valid...)
	mut[7] ^= 0x10
	f.Add(mut)
	hello, _ := ckptlog.EncodePayload(Hello{Session: 1, Owner: "x", Entries: []EntryManifest{{Chunks: []ChunkRef{{Hash: 1, Len: 2, Sum: 3}}}}})
	f.Add(ckptlog.EncodeRawFrame(nil, ckptlog.RawFrame{Kind: uint8(FrameHello), ID: 1, Payload: hello}))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, ok := DecodeMessage(data)
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if !ok {
			if n != 0 {
				t.Fatalf("rejected frame consumed %d bytes", n)
			}
			return
		}
		if n == 0 {
			t.Fatal("accepted frame consumed nothing")
		}
		// Accepted frames survive a re-encode byte-for-byte: the decoder
		// accepts no frame the encoder would not produce.
		if got := ckptlog.EncodeRawFrame(nil, fr); !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encode differs from consumed bytes")
		}
		// Payloads of accepted frames must never panic the gob layer,
		// whatever they hold.
		var h Hello
		_ = ckptlog.DecodePayload(fr.Payload, &h)
		var c Chunk
		_ = ckptlog.DecodePayload(fr.Payload, &c)
	})
}

// TestDecodePayloadErrorIsTyped pins DecodePayload's error contract:
// hostile bytes wrap api.ErrInvalidValue so the import path maps them to
// the right wire code.
func TestDecodePayloadErrorIsTyped(t *testing.T) {
	var h Hello
	err := ckptlog.DecodePayload([]byte("junk"), &h)
	if err == nil {
		t.Fatal("junk decoded")
	}
	if code := api.Code(err); code != api.ErrInvalidValue {
		t.Fatalf("error code = %v, want ErrInvalidValue", code)
	}
}
