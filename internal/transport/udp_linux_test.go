//go:build linux && (amd64 || arm64)

package transport

import (
	"testing"
	"time"
)

// TestReadRingBytes: a udp-batch read lane's receive ring is
// DefaultBatchSize slots of the longest frame the codec encodes, 32 × 8,744
// bytes, allocated by the first ReadBatch; a lane only written through
// holds none.
func TestReadRingBytes(t *testing.T) {
	rx := listenBatch(t, Options{})
	bc := rx.(*batchConn)
	if bc.rr.bufs != nil || bc.wr.bufs != nil {
		t.Fatal("a ring holds receive buffers before the first ReadBatch")
	}
	if _, err := rx.WriteTo([]byte("ping"), rx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := rx.ReadBatch(NewBatch(0)); err != nil || n != 1 {
		t.Fatalf("ReadBatch = %d, %v", n, err)
	}
	const want = DefaultBatchSize * 8744
	if got := cap(bc.rr.bufs); got != want {
		t.Fatalf("the read ring holds %d bytes of buffers, want %d × 8,744 = %d", got, DefaultBatchSize, want)
	}
	if bc.wr.bufs != nil {
		t.Fatal("the write ring holds receive buffers")
	}
}
