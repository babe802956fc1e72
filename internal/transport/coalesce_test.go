package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"testing"
	"unsafe"

	"softstate/internal/rand"
	"softstate/internal/telemetry"
	"softstate/internal/wire"
)

// TestCoalescedMarkIsNoFrame: the mark that heads a coalesced datagram is
// no wire version, and the codec rejects a frame that starts with it, so
// no frame can be mistaken for a coalesced datagram or the other way round.
func TestCoalescedMarkIsNoFrame(t *testing.T) {
	if coalescedMark == wire.Version || coalescedMark == wire.VersionExt {
		t.Fatalf("coalescedMark %#x is a wire version", coalescedMark)
	}
	frame, err := (&wire.Message{Type: wire.TypeTrigger, Seq: 7, Key: "k", Value: []byte("v")}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Head it with the mark and seal it again: the codec must refuse the
	// version itself, not only the broken checksum.
	frame[0] = coalescedMark
	body := frame[:len(frame)-4]
	binary.BigEndian.PutUint32(frame[len(body):], crc32.ChecksumIEEE(body))
	var m wire.Message
	if err := m.UnmarshalBinary(frame); !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("a frame headed by the mark decodes with %v, want wire.ErrVersion", err)
	}
}

// coalesce lays ms out the way the udp-batch writer does, from the same
// plan and length prefixes, and returns the datagrams the kernel would
// carry: each run planDatagram chooses, gathered, or a lone frame as is.
func coalesce(ms []Message, budget int) [][]byte {
	var out [][]byte
	for f := 0; f < len(ms); {
		k := planDatagram(ms[f:], budget)
		if k == 1 {
			out = append(out, ms[f].Data)
			f++
			continue
		}
		var d []byte
		for j := f; j < f+k; j++ {
			var cell [1 + lenPrefix]byte
			d = append(d, frameHeader(&cell, j == f, len(ms[j].Data))...)
			d = append(d, ms[j].Data...)
		}
		out = append(out, d)
		f += k
	}
	return out
}

// split is the reader's side: every frame of every datagram, in order.
func split(t *testing.T, dgrams [][]byte) [][]byte {
	t.Helper()
	var out [][]byte
	var fc frameCursor
	for _, d := range dgrams {
		if !fc.load(d, nil) {
			t.Fatalf("a planned datagram of %d bytes does not split", len(d))
		}
		var m Message
		for fc.next(&m) {
			out = append(out, m.Data)
		}
	}
	return out
}

// TestCoalesceRoundTrip: for random frame sizes, destinations and budgets,
// the write plan followed by the split returns the input frames in order;
// every datagram fits its budget, a lone frame goes out byte for byte, and
// no two frames to different destinations share a datagram.
func TestCoalesceRoundTrip(t *testing.T) {
	rng := rand.NewSource(31)
	dests := []net.Addr{
		&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7000},
		&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7001},
	}
	// Frames are random windows of one noise block: drawing every byte
	// would cost more than the plan and the split under test.
	noise := make([]byte, 2*MaxDatagram)
	for j := range noise {
		noise[j] = byte(rng.Intn(256))
	}
	for trial := 0; trial < 2000; trial++ {
		budget := 64 + rng.Intn(MaxDatagram-64+1)
		n := 1 + rng.Intn(3*DefaultBatchSize)
		ms := make([]Message, n)
		for i := range ms {
			size := 1 + rng.Intn(64)
			if rng.Intn(4) == 0 {
				size = 1 + rng.Intn(MaxDatagram)
			}
			off := rng.Intn(MaxDatagram)
			data := bytes.Clone(noise[off : off+size])
			data[0] = wire.Version // a frame, never a coalesced datagram
			// Long runs to one destination, with occasional switches.
			dest := dests[0]
			if i > 0 && rng.Intn(8) == 0 {
				dest = dests[1]
			}
			ms[i] = Message{Data: data, Addr: dest}
		}
		dgrams := coalesce(ms, budget)
		got := split(t, dgrams)
		if len(got) != n {
			t.Fatalf("trial %d: %d frames in, %d out", trial, n, len(got))
		}
		for i := range ms {
			if !bytes.Equal(got[i], ms[i].Data) {
				t.Fatalf("trial %d: frame %d changed on the way", trial, i)
			}
		}
		f := 0
		for _, d := range dgrams {
			if d[0] != coalescedMark {
				if !bytes.Equal(d, ms[f].Data) {
					t.Fatalf("trial %d: lone frame %d not sent as itself", trial, f)
				}
				f++
				continue
			}
			if len(d) > budget {
				t.Fatalf("trial %d: a %d-byte datagram over the %d-byte budget", trial, len(d), budget)
			}
			var fc frameCursor
			fc.load(d, nil)
			first := f
			for m := (Message{}); fc.next(&m); f++ {
				if !sameDest(ms[f].Addr, ms[first].Addr) {
					t.Fatalf("trial %d: frames %d and %d to different peers share a datagram", trial, first, f)
				}
			}
		}
	}
}

// TestPayloadBudget: the route MTU less the IP and UDP headers, capped at
// MaxDatagram, IPv4's largest UDP payload; 1,232 B when the probe fails.
// Loopback's MTU, 65,536, leaves 65,507 B on IPv4 and 65,488 on IPv6.
func TestPayloadBudget(t *testing.T) {
	fail := errors.New("no route")
	for _, c := range []struct {
		mtu  int
		err  error
		v6   bool
		want int
	}{
		{1500, nil, false, 1472},
		{1500, nil, true, 1452},
		{1400, nil, false, 1372},
		{65535, nil, false, 65507},
		{65535, nil, true, 65487},
		{65536, nil, false, MaxDatagram},
		{65536, nil, true, 65488},
		{1 << 20, nil, true, MaxDatagram},
		{0, fail, false, 1232},
		{9000, fail, true, 1232},
		{20, nil, false, 1232},
	} {
		if got := payloadBudget(c.mtu, c.err, c.v6); got != c.want {
			t.Errorf("payloadBudget(%d, %v, v6=%v) = %d, want %d", c.mtu, c.err, c.v6, got, c.want)
		}
	}
}

// scriptedConn is a net.PacketConn that reads a fixed list of datagrams,
// then io.EOF.
type scriptedConn struct {
	net.PacketConn
	dgrams [][]byte
}

func (c *scriptedConn) ReadFrom(p []byte) (int, net.Addr, error) {
	if len(c.dgrams) == 0 {
		return 0, nil, io.EOF
	}
	d := c.dgrams[0]
	c.dgrams = c.dgrams[1:]
	return copy(p, d), &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}, nil
}

// FuzzCoalesced: whatever follows the mark, Wrap's read path neither
// panics nor hands out a byte outside the datagram. A malformed datagram
// delivers nothing and counts one; a well-formed one delivers frames that
// tile it. A plain "next" datagram behind it always arrives intact.
func FuzzCoalesced(f *testing.F) {
	two := coalesce([]Message{{Data: []byte("ab")}, {Data: []byte("cde")}}, MaxDatagram)[0]
	f.Add(two[1:])
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 3, 'a', 'b'})
	f.Add([]byte{0xFF, 0xFF, 1})
	f.Add([]byte{0, 1, 'a', 0})
	f.Fuzz(func(t *testing.T, rest []byte) {
		d := append([]byte{coalescedMark}, rest...)
		if len(d) > MaxDatagram {
			return
		}
		c := Wrap(&scriptedConn{dgrams: [][]byte{d, []byte("next")}}).(*wrapConn)
		var frames [][]byte
		ms := NewBatch(3)
		for {
			n, err := c.ReadBatch(ms)
			if err != nil {
				t.Fatalf("ReadBatch: %v before the plain datagram", err)
			}
			done := false
			for _, m := range ms[:n] {
				base := uintptr(unsafe.Pointer(unsafe.SliceData(c.rbuf)))
				p := uintptr(unsafe.Pointer(unsafe.SliceData(m.Data)))
				if p == base && string(m.Data) == "next" {
					done = true // the plain datagram: it starts the buffer, no frame of d does
					break
				}
				if len(m.Data) == 0 || p < base+1 || p+uintptr(cap(m.Data)) > base+uintptr(len(d)) {
					t.Fatalf("a %d-byte frame lies outside the %d-byte datagram", len(m.Data), len(d))
				}
				frames = append(frames, bytes.Clone(m.Data))
			}
			if done {
				break
			}
		}
		malformed := c.st.Malformed.Value()
		if !validCoalesced(d) {
			if len(frames) != 0 || malformed != 1 {
				t.Fatalf("malformed datagram: %d frames delivered, Malformed = %d; want 0 and 1", len(frames), malformed)
			}
			return
		}
		if malformed != 0 {
			t.Fatalf("well-formed datagram counted malformed")
		}
		size := 1
		for _, fr := range frames {
			size += lenPrefix + len(fr)
		}
		if size != len(d) {
			t.Fatalf("frames cover %d of the datagram's %d bytes", size, len(d))
		}
	})
}

// TestWrapSplitsCoalesced: Wrap's ReadBatch and ReadFrom split a coalesced
// datagram, and drop a malformed one whole with one count.
func TestWrapSplitsCoalesced(t *testing.T) {
	frames := []Message{{Data: []byte("one")}, {Data: []byte("two")}, {Data: []byte("three")}}
	good := coalesce(frames, MaxDatagram)[0]
	bad := append(bytes.Clone(good), 0, 9) // a length running past the end
	c := Wrap(&scriptedConn{dgrams: [][]byte{bad, good, good}})
	ms := NewBatch(2)
	var got []string
	for len(got) < 3 {
		n, err := c.ReadBatch(ms)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms[:n] {
			got = append(got, string(m.Data))
		}
	}
	buf := make([]byte, 16)
	for range 3 {
		n, _, err := c.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(buf[:n]))
	}
	if s := strings.Join(got, " "); s != "one two three one two three" {
		t.Fatalf("frames read: %s", s)
	}
	st := c.Stats()
	if st.Malformed.Value() != 1 || st.ReadDatagrams.Value() != 3 || st.ReadFrames.Value() != 6 {
		t.Fatalf("Malformed %d, ReadDatagrams %d, ReadFrames %d; want 1, 3, 6",
			st.Malformed.Value(), st.ReadDatagrams.Value(), st.ReadFrames.Value())
	}
}

// TestStatsRegisterFrames: /metrics shows frames beside datagrams, and the
// malformed-datagram count.
func TestStatsRegisterFrames(t *testing.T) {
	reg := telemetry.NewRegistry()
	var st Stats
	st.Register(reg, telemetry.Labels{"role": "test"})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"softstate_transport_read_frames_total",
		"softstate_transport_write_frames_total",
		"softstate_transport_read_datagrams_total",
		"softstate_transport_write_datagrams_total",
		"softstate_transport_malformed_total",
	} {
		if !strings.Contains(b.String(), name) {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}
