package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire format, modeled on the BLE notification links of wearable
// acquisition front-ends (BioGAP-class devices push fixed-size packets of
// framed ADC samples). One frame is a little-endian header followed by
// the packed samples:
//
//	offset 0  uint32  session id
//	offset 4  uint16  sequence number (wraps; per session)
//	offset 6  uint8   sample count (0..MaxFrameSamples)
//	offset 7  uint8   flags
//	offset 8  int16 x count  raw ADC samples
//
// A zero-count frame is a pure control frame (start or end marker).
const (
	// FrameHeader is the encoded header size in bytes.
	FrameHeader = 8
	// MaxFrameSamples bounds the samples per frame, keeping encoded
	// frames under the ~140-byte payload of a single BLE 4.2 packet.
	MaxFrameSamples = 64
)

// Frame flags.
const (
	// FlagStart marks the first frame of a (re)started session: the
	// service discards any buffered state and begins a fresh detection
	// stream at this frame's sequence number.
	FlagStart uint8 = 1 << 0
	// FlagEnd marks the final frame: once the session's buffer drains,
	// the detector is flushed and the session slot is released.
	FlagEnd uint8 = 1 << 1
)

var (
	// ErrTruncated reports an ingest buffer that ends mid-frame.
	ErrTruncated = errors.New("serve: truncated frame")
	// ErrBackpressure reports a frame rejected because the session's
	// bounded buffer cannot hold it; the caller should Drain and retry.
	ErrBackpressure = errors.New("serve: session buffer full")
	// ErrFrameSize reports a transport FrameSamples beyond
	// MaxFrameSamples: such frames cannot be encoded in a single packet
	// (zero or negative selects the default size).
	ErrFrameSize = errors.New("serve: frame size outside (0, MaxFrameSamples]")
	// ErrServerClosing reports a socket server that announced shutdown
	// (wire bye) while a client run was still in flight.
	ErrServerClosing = errors.New("serve: server draining for shutdown")
)

// AppendFrame appends the wire encoding of one frame to dst and returns
// the extended slice. It panics if more than MaxFrameSamples samples are
// given (frames are fixed-capacity packets; splitting is the caller's
// job).
func AppendFrame(dst []byte, session uint32, seq uint16, flags uint8, samples []int16) []byte {
	if len(samples) > MaxFrameSamples {
		panic(fmt.Sprintf("serve: %d samples exceed MaxFrameSamples", len(samples)))
	}
	var hdr [FrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], session)
	binary.LittleEndian.PutUint16(hdr[4:], seq)
	hdr[6] = uint8(len(samples))
	hdr[7] = flags
	dst = append(dst, hdr[:]...)
	for _, x := range samples {
		dst = append(dst, byte(uint16(x)), byte(uint16(x)>>8))
	}
	return dst
}

// SplitFrames appends the wire encoding of samples to dst, split into as
// many frames as MaxFrameSamples requires, with consecutive sequence
// numbers starting at seq. FlagStart in flags is carried by the first
// frame only and FlagEnd by the last only; an empty sample slice encodes
// one zero-count control frame. It returns the extended buffer and the
// next unused sequence number, so a transport loop can hand-off between
// calls:
//
//	buf, seq = serve.SplitFrames(buf[:0], id, seq, flags, chunk)
func SplitFrames(dst []byte, session uint32, seq uint16, flags uint8, samples []int16) ([]byte, uint16) {
	first := true
	for {
		n := len(samples)
		if n > MaxFrameSamples {
			n = MaxFrameSamples
		}
		f := flags
		if !first {
			f &^= FlagStart
		}
		if n < len(samples) {
			f &^= FlagEnd
		}
		dst = AppendFrame(dst, session, seq, f, samples[:n])
		seq++
		samples = samples[n:]
		first = false
		if len(samples) == 0 {
			return dst, seq
		}
	}
}

// frameHeader is the decoded fixed part of one frame.
type frameHeader struct {
	session uint32
	seq     uint16
	count   int
	flags   uint8
}

// parseFrame decodes the frame at the start of b, returning its header,
// its raw payload bytes (count little-endian int16s, aliasing b) and the
// total encoded length. A buffer shorter than the header or the declared
// payload — including a count beyond MaxFrameSamples, which can only be a
// corrupt or foreign packet — is ErrTruncated.
func parseFrame(b []byte) (frameHeader, []byte, int, error) {
	if len(b) < FrameHeader {
		return frameHeader{}, nil, 0, ErrTruncated
	}
	h := frameHeader{
		session: binary.LittleEndian.Uint32(b[0:]),
		seq:     binary.LittleEndian.Uint16(b[4:]),
		count:   int(b[6]),
		flags:   b[7],
	}
	if h.count > MaxFrameSamples {
		return frameHeader{}, nil, 0, ErrTruncated
	}
	n := FrameHeader + 2*h.count
	if len(b) < n {
		return frameHeader{}, nil, 0, ErrTruncated
	}
	return h, b[FrameHeader:n], n, nil
}

// sampleAt decodes the i-th int16 sample of a frame payload.
func sampleAt(payload []byte, i int) int16 {
	return int16(binary.LittleEndian.Uint16(payload[2*i:]))
}
