package signal

import (
	"net"

	"softstate/internal/wire"
)

// wireTrigger builds a raw trigger message for replay tests.
func wireTrigger(seq uint64, key string, value []byte) wire.Message {
	return wire.Message{Type: wire.TypeTrigger, Seq: seq, Key: key, Value: value}
}

// tkey is r's table key of key from the sender at from, "" if from holds
// nothing there.
func tkey(r *Receiver, from net.Addr, key string) string {
	if p := r.peers.byAddr.get(from.String()); p != nil {
		return tableKey(p.id, key)
	}
	return ""
}
