package telemetry

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSerializeDecodeRoundTrip(t *testing.T) {
	in := Report{Seq: 42, Timestamp: 1234567 * time.Microsecond, RSSIdBm: -47.125, Flags: FlagSweepActive}
	buf := make([]byte, FrameLen)
	n, err := in.SerializeTo(buf)
	if err != nil || n != FrameLen {
		t.Fatalf("serialize: %d, %v", n, err)
	}
	var out Report
	if err := out.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.Timestamp != in.Timestamp || out.Flags != in.Flags {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
	if math.Abs(out.RSSIdBm-in.RSSIdBm) > 0.001 {
		t.Errorf("RSSI %v vs %v", out.RSSIdBm, in.RSSIdBm)
	}
}

// TestRoundTripProperty: every encodable report decodes to exactly the
// wire values it was built from — no tolerance. The exhaustive sweep
// over ±200 dBm in milli-dBm steps catches values such as −131.069 dBm
// whose product with 1000 falls just short of the integer, which a
// truncating encoder writes one milli-dBm off.
func TestRoundTripProperty(t *testing.T) {
	roundTrip := func(in Report) (Report, error) {
		buf := make([]byte, FrameLen)
		if _, err := in.SerializeTo(buf); err != nil {
			return Report{}, err
		}
		var out Report
		err := out.DecodeFromBytes(buf)
		return out, err
	}
	f := func(seq uint32, micros uint32, milli int32, flags uint16) bool {
		in := Report{
			Seq:       seq,
			Timestamp: time.Duration(micros) * time.Microsecond,
			RSSIdBm:   float64(milli) / 1000,
			Flags:     flags,
		}
		out, err := roundTrip(in)
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	bad := 0
	for milli := -200000; milli <= 200000; milli++ {
		in := Report{RSSIdBm: float64(milli) / 1000}
		out, err := roundTrip(in)
		if err != nil || out.RSSIdBm != in.RSSIdBm {
			if bad == 0 {
				t.Errorf("%v dBm decodes as %v dBm (%v)", in.RSSIdBm, out.RSSIdBm, err)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of 400001 milli-dBm values in ±200 dBm do not round-trip", bad)
	}
}

// TestTimestampRange: a negative timestamp is not encodable, and a
// timestamp field too large for a time.Duration is rejected on decode
// rather than wrapped; the largest field that fits decodes exactly.
func TestTimestampRange(t *testing.T) {
	buf := make([]byte, FrameLen)
	if _, err := (&Report{Timestamp: -time.Microsecond}).SerializeTo(buf); err == nil {
		t.Error("negative timestamp serialized")
	}
	frame := func(micros uint64) []byte {
		b := make([]byte, FrameLen)
		b[0], b[1] = frameMagic, frameVersion
		binary.BigEndian.PutUint64(b[8:16], micros)
		binary.BigEndian.PutUint32(b[20:24], crc32.ChecksumIEEE(b[:20]))
		return b
	}
	var r Report
	if err := r.DecodeFromBytes(frame(math.MaxInt64/1000 + 1)); !errors.Is(err, ErrBadTimestamp) {
		t.Errorf("overflowing timestamp: err = %v (decoded %v), want ErrBadTimestamp", err, r.Timestamp)
	}
	if err := r.DecodeFromBytes(frame(math.MaxInt64 / 1000)); err != nil || r.Timestamp != math.MaxInt64/1000*time.Microsecond {
		t.Errorf("largest timestamp: %v, %v", r.Timestamp, err)
	}
}

func TestAppend(t *testing.T) {
	r := Report{Seq: 1, RSSIdBm: -50}
	buf, err := r.Append([]byte{0xAA})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 1+FrameLen || buf[0] != 0xAA {
		t.Errorf("append shape: %d bytes", len(buf))
	}
	var out Report
	if err := out.DecodeFromBytes(buf[1:]); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	good := make([]byte, FrameLen)
	r := Report{Seq: 7, RSSIdBm: -33}
	if _, err := r.SerializeTo(good); err != nil {
		t.Fatal(err)
	}
	var out Report
	// Short.
	if err := out.DecodeFromBytes(good[:10]); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short error = %v", err)
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if err := out.DecodeFromBytes(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic error = %v", err)
	}
	// Bad version.
	bad = append([]byte(nil), good...)
	bad[1] = 99
	if err := out.DecodeFromBytes(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version error = %v", err)
	}
	// Flipped payload bit breaks the CRC.
	bad = append([]byte(nil), good...)
	bad[17] ^= 0x01
	if err := out.DecodeFromBytes(bad); !errors.Is(err, ErrBadCRC) {
		t.Errorf("crc error = %v", err)
	}
}

func TestSerializeErrors(t *testing.T) {
	r := Report{RSSIdBm: -50}
	if _, err := r.SerializeTo(make([]byte, 10)); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short buffer error = %v", err)
	}
	r.RSSIdBm = math.NaN()
	if _, err := r.SerializeTo(make([]byte, FrameLen)); err == nil {
		t.Error("NaN RSSI should fail")
	}
	r.RSSIdBm = 1e10
	if _, err := r.SerializeTo(make([]byte, FrameLen)); err == nil {
		t.Error("absurd RSSI should fail")
	}
}

func TestTrailingBytesTolerated(t *testing.T) {
	buf := make([]byte, FrameLen+8)
	r := Report{Seq: 3, RSSIdBm: -60}
	if _, err := r.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := out.DecodeFromBytes(buf); err != nil {
		t.Errorf("padding should be tolerated: %v", err)
	}
}

func TestUDPTransportEndToEnd(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	rep, err := NewReporter(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	for i := 0; i < 10; i++ {
		if err := rep.Report(time.Duration(i)*time.Millisecond, -40-float64(i), FlagSweepActive); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		got, err := col.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != uint32(i) {
			t.Errorf("seq = %d, want %d", got.Seq, i)
		}
		if math.Abs(got.RSSIdBm-(-40-float64(i))) > 0.01 {
			t.Errorf("rssi[%d] = %v", i, got.RSSIdBm)
		}
	}
	if col.Malformed() != 0 || col.Lost() != 0 {
		t.Errorf("malformed=%d lost=%d", col.Malformed(), col.Lost())
	}
}

func TestCollectorRejectsGarbage(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	rep, err := NewReporter(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	// Hand-roll garbage datagrams on a raw socket.
	raw, err := NewReporter(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.conn.Write([]byte("not a frame at all........")); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.conn.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Then one good frame to sequence the test.
	if err := rep.Report(time.Millisecond, -50, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	got, err := col.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.RSSIdBm != -50 {
		t.Errorf("good frame rssi = %v", got.RSSIdBm)
	}
	if col.Malformed() < 2 {
		t.Errorf("malformed = %d, want ≥ 2", col.Malformed())
	}
}

func TestNextHonorsContext(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := col.Next(ctx); err == nil {
		t.Error("Next should fail on context timeout")
	}
}

func TestReporterBadAddress(t *testing.T) {
	if _, err := NewReporter("this is not an address"); err == nil {
		t.Error("bad address should fail")
	}
}

func TestStringer(t *testing.T) {
	r := Report{Seq: 9, RSSIdBm: -41.5}
	if !strings.Contains(r.String(), "-41.5") {
		t.Errorf("String = %q", r.String())
	}
}
