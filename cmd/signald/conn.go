package main

import (
	"fmt"
	"net"

	"softstate/internal/telemetry"
	"softstate/internal/transport"
)

// Transport selection, shared by every live mode. tKind is -transport,
// tOpts carries -sockets (and the batch/buffer defaults), bindAddr is
// -bind for sockets that used to grab ":0" on every interface.
var (
	tKind    string
	tOpts    transport.Options
	bindAddr string
)

// listenConn opens a serving-side conn on addr for the selected
// transport: batched mmsg UDP (optionally SO_REUSEPORT sharded) or a TCP
// listener speaking the framed stream protocol.
func listenConn(addr string) (transport.Conn, error) {
	switch tKind {
	case "udp":
		return transport.ListenUDPBatch(addr, tOpts)
	case "tcp":
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, err
		}
		return transport.NewStream("", ln, tOpts), nil
	}
	return nil, fmt.Errorf("unknown -transport %q (want udp or tcp)", tKind)
}

// clientConn opens an ephemeral-port conn for the sending side (send,
// relay downstream), on loopback unless -bind names an address.
func clientConn() (transport.Conn, error) {
	bind := bindAddr
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	switch tKind {
	case "udp":
		return transport.ListenUDPBatch(bind, tOpts)
	case "tcp":
		// Dial-only stream; connections are dialed per peer on first send
		// and announce a fresh random identity.
		return transport.NewStream("", nil, tOpts), nil
	}
	return nil, fmt.Errorf("unknown -transport %q (want udp or tcp)", tKind)
}

// resolvePeer resolves a remote address for the selected transport.
func resolvePeer(addr string) (net.Addr, error) {
	if tKind == "tcp" {
		return net.ResolveTCPAddr("tcp", addr)
	}
	return net.ResolveUDPAddr("udp", addr)
}

// registerConn exposes the conn's syscall/datagram counters on the
// metrics registry (no-op without -metrics-addr). lane distinguishes the
// relay's two sockets.
func registerConn(c transport.Conn, reg *telemetry.Registry, lane string) {
	c.Stats().Register(reg, telemetry.Labels{"transport": tKind, "lane": lane})
}
