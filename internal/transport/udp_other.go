//go:build !linux || !(amd64 || arm64)

package transport

import "net"

// ListenUDPBatch on platforms without bound mmsg syscalls: one plain
// kernel socket behind the pass-through batcher — one datagram per
// syscall, same interface, honest Stats. Options.Sockets collapses to 1
// (SO_REUSEPORT sharding is bound only on linux).
func ListenUDPBatch(addr string, o Options) (Conn, error) {
	o = o.withDefaults()
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	if err := pc.(*net.UDPConn).SetReadBuffer(readBuffer); err != nil {
		pc.Close()
		return nil, err
	}
	return Wrap(pc), nil
}
