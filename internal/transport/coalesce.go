package transport

import (
	"encoding/binary"
	"net"
)

// Coalesced datagram format — how the udp-batch writer packs a run of
// consecutive frames to one destination into one kernel datagram:
//
//	offset  size  field
//	0       1     coalescedMark
//	1       2     frame length L, big-endian (≥ 1)
//	3       L     frame
//	…             more (length, frame) pairs, tiling the datagram exactly
//
// The mark is a byte no wire version uses, so a receiver tells a coalesced
// datagram from a lone frame by its first byte, and the codec rejects it
// as a frame (a payload that starts with it is no frame, and is read as a
// coalesced datagram). A lone frame, and any frame too long to share its
// destination's budget, goes out as itself, byte for byte.
const (
	coalescedMark byte = 0xC5
	lenPrefix          = 2

	// ipv4Overhead and ipv6Overhead are the IP and UDP headers a datagram
	// carries below its payload.
	ipv4Overhead = 20 + 8
	ipv6Overhead = 40 + 8
	// fallbackBudget is the payload budget when the route's MTU cannot be
	// read: IPv6's minimum MTU, 1,280, less its headers, which every path
	// carries.
	fallbackBudget = 1280 - ipv6Overhead
)

// payloadBudget turns a route MTU probe into the most bytes one coalesced
// datagram may hold: the MTU less the IP and UDP headers, never above
// MaxDatagram (every receive buffer's length), and fallbackBudget when the
// probe failed or read an MTU too small to carry the headers.
func payloadBudget(mtu int, err error, v6 bool) int {
	overhead := ipv4Overhead
	if v6 {
		overhead = ipv6Overhead
	}
	if err != nil || mtu <= overhead {
		return fallbackBudget
	}
	return min(MaxDatagram, mtu-overhead)
}

// sameDest reports whether a and b name one UDP destination.
func sameDest(a, b net.Addr) bool {
	if a == b {
		return true
	}
	ua, ok := a.(*net.UDPAddr)
	ub, ok2 := b.(*net.UDPAddr)
	return ok && ok2 && ua.Port == ub.Port && ua.Zone == ub.Zone && ua.IP.Equal(ub.IP)
}

// planDatagram returns how many of ms, from ms[0] on, go out in one
// datagram under budget: the longest run of consecutive non-empty frames
// to ms[0]'s destination whose coalesced size fits, or 1 when ms[0] goes
// alone (no such run of two, or a frame too long to share).
func planDatagram(ms []Message, budget int) int {
	size := 1 + lenPrefix + len(ms[0].Data)
	if size > budget {
		return 1
	}
	n := 1
	for ; n < len(ms) && len(ms[n].Data) > 0 && sameDest(ms[n].Addr, ms[0].Addr); n++ {
		if size += lenPrefix + len(ms[n].Data); size > budget {
			break
		}
	}
	return n
}

// frameHeader fills cell with what precedes a frame of n bytes in a
// coalesced datagram and returns it: the mark and the length for the
// datagram's first frame, the length alone for the others.
func frameHeader(cell *[1 + lenPrefix]byte, first bool, n int) []byte {
	cell[0] = coalescedMark
	binary.BigEndian.PutUint16(cell[1:], uint16(n))
	if first {
		return cell[:]
	}
	return cell[1:]
}

// validCoalesced reports whether the length prefixes of coalesced datagram
// d tile it exactly: at least one frame, none empty, none past its end.
func validCoalesced(d []byte) bool {
	if len(d) < 1+lenPrefix+1 {
		return false
	}
	for off := 1; off < len(d); {
		if len(d)-off < lenPrefix {
			return false
		}
		n := int(binary.BigEndian.Uint16(d[off:]))
		off += lenPrefix
		if n == 0 || n > len(d)-off {
			return false
		}
		off += n
	}
	return true
}

// frameCursor hands out one received datagram's frames, one per next: a
// plain datagram is one frame, a coalesced one each of its frames in
// order. Frames alias the datagram; a drained cursor holds no reference
// to it, so it pins no buffer the conn has given back.
type frameCursor struct {
	rest      []byte // what is left: a plain datagram, or length-prefixed frames
	coalesced bool
	from      net.Addr
}

// load points the cursor at datagram d from from. A coalesced datagram
// whose lengths do not tile it is malformed: load reports false and the
// cursor holds nothing, so the datagram is dropped whole.
func (fc *frameCursor) load(d []byte, from net.Addr) bool {
	fc.coalesced = len(d) > 0 && d[0] == coalescedMark
	if fc.coalesced {
		if !validCoalesced(d) {
			*fc = frameCursor{}
			return false
		}
		d = d[1:]
	}
	fc.rest, fc.from = d, from
	return true
}

// next stores the cursor's next frame in m, reporting false when none is
// left.
func (fc *frameCursor) next(m *Message) bool {
	if fc.rest == nil {
		return false
	}
	if !fc.coalesced {
		m.Data, m.Addr = fc.rest, fc.from
		*fc = frameCursor{}
		return true
	}
	end := lenPrefix + int(binary.BigEndian.Uint16(fc.rest))
	m.Data, m.Addr = fc.rest[lenPrefix:end:end], fc.from
	if fc.rest = fc.rest[end:]; len(fc.rest) == 0 {
		*fc = frameCursor{}
	}
	return true
}
