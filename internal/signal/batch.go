package signal

import (
	"net"

	"softstate/internal/bufpool"
	"softstate/internal/transport"
	"softstate/internal/wire"
)

// batchWriter coalesces outbound datagrams into transport WriteBatch
// calls: each add encodes onto a pooled buffer and queues; a full ring or
// an explicit flush moves the whole batch in one syscall on batching
// backends. The summary sweep's writer holds transport.MaxWriteBatch
// datagrams, what one sendmmsg lays out; the ack and probe writers hold
// transport.DefaultBatchSize. It preserves add order, so deterministic
// virtual runs see the same wire order the unbatched path produced. Not
// safe for concurrent use — each call site owns one writer under its own
// serialization (summary sweeps under sweepMu, ack flushes under ackMu).
type batchWriter struct {
	tp    *fencedConn
	ctrs  *counters
	ms    []transport.Message
	bufs  []*bufpool.Buf // nil where the datagram is the caller's (addEncoded)
	types []wire.Type
	n     int
}

func newBatchWriter(tp *fencedConn, ctrs *counters, size int) *batchWriter {
	return &batchWriter{
		tp:    tp,
		ctrs:  ctrs,
		ms:    make([]transport.Message, size),
		bufs:  make([]*bufpool.Buf, size),
		types: make([]wire.Type, size),
	}
}

// add encodes m for to and queues it, flushing when the ring fills.
// Reports whether the message was queued (encode failures are dropped,
// matching the unbatched send path).
func (w *batchWriter) add(m wire.Message, to net.Addr) bool {
	buf := bufpool.Get()
	data, err := m.Append(buf.B[:0])
	if err != nil {
		buf.Free()
		return false
	}
	buf.B = data
	w.bufs[w.n] = buf
	w.addEncoded(data, m.Type, to)
	return true
}

// addEncoded queues a datagram the caller encoded and keeps: the writer
// neither copies nor frees it, so data must stay untouched until the next
// flush returns. Every transport has consumed a datagram by the time its
// write returns (the contract endpoint.send states), so it is the caller's
// again after that.
func (w *batchWriter) addEncoded(data []byte, typ wire.Type, to net.Addr) {
	w.types[w.n] = typ
	w.ms[w.n].Data = data
	w.ms[w.n].Addr = to
	w.n++
	if w.n == len(w.ms) {
		w.flush()
	}
}

// flush writes every queued datagram in one transport batch, counts the
// accepted ones per wire type, and recycles the encode buffers it owns.
func (w *batchWriter) flush() {
	if w.n == 0 {
		return
	}
	sent := w.tp.writeBatch(w.ms[:w.n])
	for i := 0; i < sent; i++ {
		w.ctrs.sent[w.types[i]].Add(1)
	}
	for i := 0; i < w.n; i++ {
		if w.bufs[i] != nil {
			w.bufs[i].Free()
			w.bufs[i] = nil
		}
		w.ms[i].Data = nil
		w.ms[i].Addr = nil
	}
	w.n = 0
}
