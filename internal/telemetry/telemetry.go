// Package telemetry carries receiver→controller RSSI reports: the feedback
// half of LLAMA's control loop (Fig. 5's "Signal Power Measurements").
//
// The wire format is a compact versioned binary layer in the style of
// gopacket's DecodingLayer: explicit SerializeTo/DecodeFromBytes on a
// fixed-layout frame with a CRC-32 trailer, so malformed datagrams are
// rejected rather than misparsed. Reports travel over UDP — the loop is
// latency-sensitive and tolerates loss (a missed sample just delays the
// sweep by one switch period).
package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// Frame layout (big-endian), 24 bytes total:
//
//	offset  size  field
//	0       1     magic 'L'
//	1       1     version (1)
//	2       2     flags
//	4       4     sequence number
//	8       8     sample timestamp, microseconds of virtual time
//	16      4     RSSI in milli-dBm, signed (−80 dBm = −80000)
//	20      4     CRC-32 (IEEE) of bytes 0–19
const (
	frameMagic   = 'L'
	frameVersion = 1
	// FrameLen is the wire size of an RSSI report.
	FrameLen = 24
)

// Flag bits.
const (
	// FlagSaturated marks samples whose front end was clipping.
	FlagSaturated uint16 = 1 << iota
	// FlagSweepActive marks samples taken during a bias sweep, so the
	// controller can label them with voltage states (Eq. 13).
	FlagSweepActive
)

// Decoding errors.
var (
	ErrShortFrame = errors.New("telemetry: short frame")
	ErrBadMagic   = errors.New("telemetry: bad magic byte")
	ErrBadVersion = errors.New("telemetry: unsupported version")
	ErrBadCRC     = errors.New("telemetry: CRC mismatch")
	// ErrBadTimestamp marks a timestamp field too large to express in
	// nanoseconds (time.Duration) without wrapping.
	ErrBadTimestamp = errors.New("telemetry: timestamp out of range")
)

// Report is one RSSI measurement, timestamped in the receiver's virtual
// sample clock.
type Report struct {
	// Seq increments per report; gaps reveal datagram loss.
	Seq uint32
	// Timestamp is the receiver's virtual time for the measured block.
	Timestamp time.Duration
	// RSSIdBm is the measured power.
	RSSIdBm float64
	// Flags carries the Flag* bits.
	Flags uint16
}

// SerializeTo writes the frame into buf, which must have length ≥
// FrameLen; it returns the number of bytes written. RSSI is rounded to
// the nearest milli-dBm, so a decoded report re-encodes to the same
// bytes. RSSI magnitudes beyond ±2 MdBm (absurd) and negative
// timestamps are rejected rather than silently wrapped.
func (r *Report) SerializeTo(buf []byte) (int, error) {
	if len(buf) < FrameLen {
		return 0, fmt.Errorf("%w: need %d bytes, have %d", ErrShortFrame, FrameLen, len(buf))
	}
	milli := math.Round(r.RSSIdBm * 1000)
	if math.IsNaN(milli) || milli > math.MaxInt32 || milli < math.MinInt32 {
		return 0, fmt.Errorf("telemetry: RSSI %g dBm not encodable", r.RSSIdBm)
	}
	if r.Timestamp < 0 {
		return 0, fmt.Errorf("telemetry: negative timestamp %v not encodable", r.Timestamp)
	}
	buf[0] = frameMagic
	buf[1] = frameVersion
	binary.BigEndian.PutUint16(buf[2:4], r.Flags)
	binary.BigEndian.PutUint32(buf[4:8], r.Seq)
	binary.BigEndian.PutUint64(buf[8:16], uint64(r.Timestamp/time.Microsecond))
	binary.BigEndian.PutUint32(buf[16:20], uint32(int32(milli)))
	crc := crc32.ChecksumIEEE(buf[:20])
	binary.BigEndian.PutUint32(buf[20:24], crc)
	return FrameLen, nil
}

// Append serializes the report onto the end of dst and returns the
// extended slice.
func (r *Report) Append(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = append(dst, make([]byte, FrameLen)...)
	if _, err := r.SerializeTo(dst[n:]); err != nil {
		return dst[:n], err
	}
	return dst, nil
}

// DecodeFromBytes parses a frame in place, validating magic, version,
// CRC and the timestamp's range. Extra trailing bytes are ignored (UDP
// padding tolerance).
func (r *Report) DecodeFromBytes(buf []byte) error {
	if len(buf) < FrameLen {
		return fmt.Errorf("%w: %d bytes", ErrShortFrame, len(buf))
	}
	if buf[0] != frameMagic {
		return fmt.Errorf("%w: 0x%02x", ErrBadMagic, buf[0])
	}
	if buf[1] != frameVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, buf[1])
	}
	want := binary.BigEndian.Uint32(buf[20:24])
	if got := crc32.ChecksumIEEE(buf[:20]); got != want {
		return fmt.Errorf("%w: got %08x want %08x", ErrBadCRC, got, want)
	}
	micros := binary.BigEndian.Uint64(buf[8:16])
	if micros > math.MaxInt64/uint64(time.Microsecond) {
		return fmt.Errorf("%w: %d µs", ErrBadTimestamp, micros)
	}
	r.Flags = binary.BigEndian.Uint16(buf[2:4])
	r.Seq = binary.BigEndian.Uint32(buf[4:8])
	r.Timestamp = time.Duration(micros) * time.Microsecond
	r.RSSIdBm = float64(int32(binary.BigEndian.Uint32(buf[16:20]))) / 1000
	return nil
}

// String implements fmt.Stringer.
func (r *Report) String() string {
	return fmt.Sprintf("rssi[%d] %.2f dBm @%v flags=%04x", r.Seq, r.RSSIdBm, r.Timestamp, r.Flags)
}
