package telemetry

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestDecodeNeverPanicsOnGarbage hammers the decoder with random bytes:
// a malformed datagram must produce an error, never a panic or a bogus
// accept (the CRC gate).
func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	accepted := 0
	for i := 0; i < 50000; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		var r Report
		if err := r.DecodeFromBytes(buf); err == nil {
			accepted++
		}
	}
	// A random 24+ byte buffer passes magic+version+CRC with
	// probability ≈ 2^-48; zero accepts expected over 50k trials.
	if accepted != 0 {
		t.Errorf("decoder accepted %d random buffers", accepted)
	}
}

// TestDecodeBitFlipsAlwaysCaught flips every single bit of a valid frame:
// the CRC (plus header checks) must catch each one.
func TestDecodeBitFlipsAlwaysCaught(t *testing.T) {
	good := make([]byte, FrameLen)
	r := Report{Seq: 1234, Timestamp: 5 * time.Second, RSSIdBm: -47.25, Flags: FlagSweepActive}
	if _, err := r.SerializeTo(good); err != nil {
		t.Fatal(err)
	}
	for byteIdx := 0; byteIdx < FrameLen; byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			mutated := append([]byte(nil), good...)
			mutated[byteIdx] ^= 1 << bit
			var out Report
			if err := out.DecodeFromBytes(mutated); err == nil {
				t.Fatalf("single bit flip at byte %d bit %d went undetected", byteIdx, bit)
			}
		}
	}
}

// TestDecodeTruncations exercises every prefix length of a valid frame.
func TestDecodeTruncations(t *testing.T) {
	good := make([]byte, FrameLen)
	r := Report{Seq: 7, RSSIdBm: -60}
	if _, err := r.SerializeTo(good); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < FrameLen; n++ {
		var out Report
		if err := out.DecodeFromBytes(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	var out Report
	if err := out.DecodeFromBytes(good); err != nil {
		t.Fatalf("full frame rejected: %v", err)
	}
}

// FuzzDecodeReport: the decoder must never panic, and any frame it
// accepts must re-serialize to the same 24 bytes. Each input is decoded
// as given, then again with magic, version and CRC rewritten to valid
// values, so coverage reaches the payload fields past the header and
// checksum gates. Seeds are the garbage, bit-flip and truncation cases
// above plus frames at the two edges the property pinned: an RSSI whose
// milli-dBm value a truncating encoder writes one off, and a timestamp
// field one past the largest time.Duration.
func FuzzDecodeReport(f *testing.F) {
	good := make([]byte, FrameLen)
	r := Report{Seq: 1234, Timestamp: 5 * time.Second, RSSIdBm: -47.25, Flags: FlagSweepActive}
	if _, err := r.SerializeTo(good); err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for n := 0; n < FrameLen; n += 5 {
		f.Add(good[:n])
	}
	for byteIdx := 0; byteIdx < FrameLen; byteIdx += 3 {
		flipped := append([]byte(nil), good...)
		flipped[byteIdx] ^= 1 << (byteIdx % 8)
		f.Add(flipped)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		garbage := make([]byte, rng.Intn(64))
		rng.Read(garbage)
		f.Add(garbage)
	}
	edge := append([]byte(nil), good...)
	milli := int32(-131069)
	binary.BigEndian.PutUint32(edge[16:20], uint32(milli))
	f.Add(edge)
	edge = append([]byte(nil), good...)
	binary.BigEndian.PutUint64(edge[8:16], math.MaxInt64/1000+1)
	f.Add(edge)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkReencodes(t, data)
		if len(data) >= FrameLen {
			fixed := append([]byte(nil), data[:FrameLen]...)
			fixed[0], fixed[1] = frameMagic, frameVersion
			binary.BigEndian.PutUint32(fixed[20:24], crc32.ChecksumIEEE(fixed[:20]))
			checkReencodes(t, fixed)
		}
	})
}

// checkReencodes decodes data and, if the frame is accepted, requires
// that serializing the report gives back its first FrameLen bytes.
func checkReencodes(t *testing.T, data []byte) {
	t.Helper()
	var r Report
	if r.DecodeFromBytes(data) != nil {
		return
	}
	out := make([]byte, FrameLen)
	if _, err := r.SerializeTo(out); err != nil {
		t.Fatalf("accepted frame %x does not re-serialize: %v", data[:FrameLen], err)
	}
	if !bytes.Equal(out, data[:FrameLen]) {
		t.Fatalf("accepted frame %x re-serializes as %x", data[:FrameLen], out)
	}
}
