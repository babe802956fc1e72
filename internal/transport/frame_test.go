package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// decodeFrame is the reference decoder FuzzFrame holds readFrame to: it
// decodes the first frame in b, returning its payload (an alias into b)
// and the remaining bytes. io.ErrShortBuffer means b holds an incomplete
// frame (read more); other errors mean the stream is corrupt.
func decodeFrame(b []byte) (typ byte, payload, rest []byte, err error) {
	if len(b) < frameHeaderLen {
		return 0, nil, b, io.ErrShortBuffer
	}
	typ = b[0]
	if typ != frameHello && typ != frameData {
		return 0, nil, b, errFrameType
	}
	n := binary.BigEndian.Uint32(b[1:frameHeaderLen])
	if n > maxFramePayload {
		return 0, nil, b, errFrameLength
	}
	end := frameHeaderLen + int(n)
	if len(b) < end {
		return 0, nil, b, io.ErrShortBuffer
	}
	return typ, b[frameHeaderLen:end], b[end:], nil
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, maxFramePayload),
	}
	var wire []byte
	wire = appendFrame(wire, frameHello, []byte("node-a"))
	for _, p := range payloads {
		wire = appendFrame(wire, frameData, p)
	}

	// decodeFrame walks the concatenation.
	typ, got, rest, err := decodeFrame(wire)
	if err != nil || typ != frameHello || string(got) != "node-a" {
		t.Fatalf("hello = %d %q %v", typ, got, err)
	}
	for i, want := range payloads {
		typ, got, rest, err = decodeFrame(rest)
		if err != nil || typ != frameData || !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %d (%d bytes) %v", i, typ, len(got), err)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}

	// writeFrame puts the same bytes on a stream, whether a frame fits the
	// writer's free space, needs a flush first, or outgrows the buffer.
	var out bytes.Buffer
	bw := bufio.NewWriterSize(&out, 16)
	if err := writeFrame(bw, frameHello, []byte("node-a")); err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := writeFrame(bw, frameData, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil || !bytes.Equal(out.Bytes(), wire) {
		t.Fatalf("writeFrame wrote %d bytes (%v), appendFrame %d", out.Len(), err, len(wire))
	}

	// readFrame sees the same sequence through a bufio.Reader.
	br := bufio.NewReader(bytes.NewReader(wire))
	buf := make([]byte, maxFramePayload)
	typ, got, err = readFrame(br, buf)
	if err != nil || typ != frameHello || string(got) != "node-a" {
		t.Fatalf("readFrame hello = %d %q %v", typ, got, err)
	}
	for i, want := range payloads {
		typ, got, err = readFrame(br, buf)
		if err != nil || typ != frameData || !bytes.Equal(got, want) {
			t.Fatalf("readFrame %d = %d (%d bytes) %v", i, typ, len(got), err)
		}
	}
	if _, _, err = readFrame(br, buf); err != io.EOF {
		t.Fatalf("readFrame at EOF = %v, want io.EOF", err)
	}
}

func TestFrameErrors(t *testing.T) {
	// Incomplete header and incomplete payload are "need more bytes".
	if _, _, _, err := decodeFrame([]byte{frameData, 0}); err != io.ErrShortBuffer {
		t.Fatalf("short header = %v", err)
	}
	partial := appendFrame(nil, frameData, []byte("hello"))[:7]
	if _, _, _, err := decodeFrame(partial); err != io.ErrShortBuffer {
		t.Fatalf("short payload = %v", err)
	}

	// Unknown type and oversized length are corruption.
	bad := appendFrame(nil, frameData, []byte("ok"))
	bad[0] = 99
	if _, _, _, err := decodeFrame(bad); !errors.Is(err, errFrameType) {
		t.Fatalf("bad type = %v", err)
	}
	huge := []byte{frameData, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, _, err := decodeFrame(huge); !errors.Is(err, errFrameLength) {
		t.Fatalf("oversized = %v", err)
	}
	br := bufio.NewReader(bytes.NewReader(huge))
	if _, _, err := readFrame(br, make([]byte, maxFramePayload)); !errors.Is(err, errFrameLength) {
		t.Fatalf("readFrame oversized = %v", err)
	}

	// One byte more than the longest frame is no stream frame, whole or
	// read.
	over := appendFrame(nil, frameData, make([]byte, maxFramePayload+1))
	if _, _, _, err := decodeFrame(over); !errors.Is(err, errFrameLength) {
		t.Fatalf("maxFramePayload+1 payload = %v", err)
	}
	br = bufio.NewReader(bytes.NewReader(over))
	if _, _, err := readFrame(br, make([]byte, maxFramePayload)); !errors.Is(err, errFrameLength) {
		t.Fatalf("readFrame maxFramePayload+1 payload = %v", err)
	}
}

// FuzzFrame cross-checks decodeFrame against readFrame on arbitrary
// bytes: same accept/reject decision, same payload, and re-encoding an
// accepted frame reproduces the consumed input.
func FuzzFrame(f *testing.F) {
	f.Add(appendFrame(nil, frameHello, []byte("id")))
	f.Add(appendFrame(nil, frameData, bytes.Repeat([]byte("k"), 100)))
	f.Add([]byte{frameData, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 1, 2, 3, 4, 5})
	f.Add(appendFrame(nil, frameData, make([]byte, maxFramePayload+1)))
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, payload, rest, err := decodeFrame(b)
		br := bufio.NewReader(bytes.NewReader(b))
		buf := make([]byte, maxFramePayload)
		rTyp, rPayload, rErr := readFrame(br, buf)
		if err != nil {
			if err == io.ErrShortBuffer {
				// Streaming sees truncation as EOF mid-frame.
				if rErr != io.EOF && rErr != io.ErrUnexpectedEOF && rErr != nil == (err == nil) {
					t.Fatalf("short: decode=%v read=%v", err, rErr)
				}
			} else if !errors.Is(rErr, err) {
				t.Fatalf("corrupt: decode=%v read=%v", err, rErr)
			}
			return
		}
		if rErr != nil || rTyp != typ || !bytes.Equal(rPayload, payload) {
			t.Fatalf("accept mismatch: decode=(%d,%d bytes) read=(%d,%d bytes,%v)",
				typ, len(payload), rTyp, len(rPayload), rErr)
		}
		consumed := len(b) - len(rest)
		if got := appendFrame(nil, typ, payload); !bytes.Equal(got, b[:consumed]) {
			t.Fatal("re-encode does not reproduce input")
		}
	})
}
