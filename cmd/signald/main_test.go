package main

import (
	"strings"
	"testing"

	"softstate/internal/singlehop"
	"softstate/internal/transport"
	"softstate/internal/variant"
)

// TestProtoFlagSpellings: -proto resolves through variant.Parse, so the
// paper spellings keep working.
func TestProtoFlagSpellings(t *testing.T) {
	cases := map[string]singlehop.Protocol{
		"SS":     singlehop.SS,
		"ss+er":  singlehop.SSER,
		"Ss+Rt":  singlehop.SSRT,
		"SS+RTR": singlehop.SSRTR,
		"hs":     singlehop.HS,
	}
	for in, want := range cases {
		prof, err := variant.Parse(in)
		if err != nil || prof.Proto != want {
			t.Fatalf("variant.Parse(%q) = %v, %v", in, prof.Proto, err)
		}
	}
	if _, err := variant.Parse("tcp"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestSplitPeers(t *testing.T) {
	got := splitPeers(" 10.0.0.1:7413, 10.0.0.2:7413 ,,10.0.0.3:7413")
	want := []string{"10.0.0.1:7413", "10.0.0.2:7413", "10.0.0.3:7413"}
	if len(got) != len(want) {
		t.Fatalf("splitPeers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitPeers = %v, want %v", got, want)
		}
	}
	if out := splitPeers(""); out != nil {
		t.Fatalf("splitPeers(\"\") = %v, want nil", out)
	}
}

// TestTransportSelector: -transport takes udp (the batched kernel-socket
// backend) or tcp (the framed stream); anything else, the retired
// udp-batch spelling included, is refused before a socket opens.
func TestTransportSelector(t *testing.T) {
	defer func(k string) { tKind = k }(tKind)
	testCases := []struct {
		kind       string
		shouldFail bool
		listenNet  string // LocalAddr().Network() of listenConn's conn
		clientNet  string // the same for clientConn's
	}{
		{"udp", false, "udp", "udp"},
		{"tcp", false, "tcp", "softstate+stream"},
		{"udp-batch", true, "", ""},
		{"UDP", true, "", ""},
		{"", true, "", ""},
		{"quic", true, "", ""},
	}
	for i, tc := range testCases {
		tKind = tc.kind
		for _, open := range []struct {
			name string
			fn   func() (transport.Conn, error)
			want string
		}{
			{"listenConn", func() (transport.Conn, error) { return listenConn("127.0.0.1:0") }, tc.listenNet},
			{"clientConn", clientConn, tc.clientNet},
		} {
			c, err := open.fn()
			if (err != nil) != tc.shouldFail {
				t.Errorf("testCase %d %q: %s error = %v, want failure %v", i, tc.kind, open.name, err, tc.shouldFail)
			}
			if err != nil {
				if !strings.Contains(err.Error(), "want udp or tcp") {
					t.Errorf("testCase %d %q: %s error %q does not name the accepted values", i, tc.kind, open.name, err)
				}
				continue
			}
			if got := c.LocalAddr().Network(); got != open.want {
				t.Errorf("testCase %d %q: %s network = %q, want %q", i, tc.kind, open.name, got, open.want)
			}
			c.Close()
		}
	}
}
