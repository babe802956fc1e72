package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"

	"softstate/internal/wire"
)

// Stream frame format — the length-prefixed datagram framing the TCP
// backend speaks:
//
//	offset  size  field
//	0       1     frame type (frameHello | frameData)
//	1       4     payload length, big-endian (≤ maxFramePayload)
//	5       L     payload
//
// frameHello carries the dialer's stable identity string and must be the
// first frame on every connection; frameData carries one signaling
// datagram, byte-identical to what the UDP backends would put on the
// wire.
const (
	frameHello byte = 1
	frameData  byte = 2

	frameHeaderLen = 5
	// maxFramePayload bounds one frame's payload: wire.MaxFrameLen, the
	// longest frame the codec encodes. A stream carries one frame per
	// stream frame and never coalesces, so it needs no more.
	maxFramePayload = wire.MaxFrameLen
)

var (
	errFrameType   = errors.New("transport: unknown frame type")
	errFrameLength = errors.New("transport: frame length out of range")
)

// appendFrame appends one encoded frame to dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// writeFrame buffers one frame on bw, encoded by appendFrame straight
// into bw's free space. A frame longer than that space flushes bw first,
// so the encoding never needs a buffer of its own.
func writeFrame(bw *bufio.Writer, typ byte, payload []byte) error {
	if bw.Available() < frameHeaderLen+len(payload) {
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	_, err := bw.Write(appendFrame(bw.AvailableBuffer(), typ, payload))
	return err
}

// readFrame reads one frame from br into buf (which must hold
// maxFramePayload bytes); the returned payload aliases buf.
func readFrame(br *bufio.Reader, buf []byte) (typ byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ = hdr[0]
	if typ != frameHello && typ != frameData {
		return 0, nil, errFrameType
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if int(n) > len(buf) {
		return 0, nil, errFrameLength
	}
	if _, err := io.ReadFull(br, buf[:n]); err != nil {
		return 0, nil, err
	}
	return typ, buf[:n], nil
}
