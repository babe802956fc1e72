package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	in := Message{
		Type: TypeTrigger, Seq: 42, Key: "flow/1", Value: []byte("10Mbps"),
		Trace: TraceContext{OriginNs: 123456789, HopNs: 123456999, Hops: 3},
	}
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != in.EncodedLen() {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(data), in.EncodedLen())
	}
	if data[0] != VersionExt {
		t.Fatalf("traced frame version = %d, want %d", data[0], VersionExt)
	}
	var out Message
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in  %+v\n out %+v", in, out)
	}
	// Re-encoding the decoded message must reproduce the bytes.
	again, err := out.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, again)
	}
}

func TestUntracedFramesStayVersion1(t *testing.T) {
	m := Message{Type: TypeRefresh, Seq: 7, Key: "k", Value: []byte("v")}
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != Version {
		t.Fatalf("untraced frame version = %d, want %d", data[0], Version)
	}
	// A trace context on a summary or batch message is ignored: the list
	// types never carry extensions.
	s := Message{Type: TypeSummaryRefresh, Seq: 8, Keys: []string{"a", "b"},
		Trace: TraceContext{OriginNs: 1, HopNs: 1}}
	sdata, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if sdata[0] != Version {
		t.Fatalf("summary frame version = %d, want %d", sdata[0], Version)
	}
}

func TestTraceDecodeStrict(t *testing.T) {
	traced := Message{
		Type: TypeTrigger, Seq: 1, Key: "k", Value: []byte("v"),
		Trace: TraceContext{OriginNs: 1000, HopNs: 2000, Hops: 1},
	}
	valid, err := traced.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(name string, f func(b []byte), wantErr error) {
		t.Run(name, func(t *testing.T) {
			b := append([]byte{}, valid...)
			f(b)
			b = reseal(b)
			var m Message
			err := m.UnmarshalBinary(b)
			if err == nil {
				t.Fatalf("decoded corrupted frame: %+v", m)
			}
			if wantErr != nil && !errors.Is(err, wantErr) {
				t.Fatalf("err = %v, want %v", err, wantErr)
			}
		})
	}
	// Zero origin stamp: the sampled predicate would be false, so the
	// frame could not re-encode as v2.
	mutate("zero-origin", func(b []byte) {
		for i := 15; i < 23; i++ {
			b[i] = 0
		}
	}, ErrExt)
	mutate("unknown-tlv-type", func(b []byte) { b[13] = 99 }, ErrExt)
	mutate("bad-tlv-len", func(b []byte) { b[14] = 5 }, ErrExt)
	mutate("bad-block-len", func(b []byte) { b[12] = 7 }, ErrExt)
	// A v2 summary frame is rejected outright.
	sum, _ := (&Message{Type: TypeSummaryRefresh, Seq: 2, Keys: []string{"a"}}).MarshalBinary()
	v2sum := append([]byte{}, sum...)
	v2sum[0] = VersionExt
	var m Message
	if err := m.UnmarshalBinary(reseal(v2sum)); !errors.Is(err, ErrExt) {
		t.Fatalf("v2 summary: err = %v, want %v", err, ErrExt)
	}
	// A v2 frame truncated inside the extension block is short, not panic.
	short := append([]byte{}, valid[:16]...)
	if err := m.UnmarshalBinary(reseal(append(short, 0, 0, 0, 0))); err == nil {
		t.Fatal("decoded truncated v2 frame")
	}
}

func TestDigestRequestRoundTrip(t *testing.T) {
	for _, req := range []DigestRequest{
		{Kind: DigestFold},
		{Kind: DigestSummary},
		{Kind: DigestDetail, Bucket: 0},
		{Kind: DigestDetail, Bucket: 511},
	} {
		got, err := ParseDigestRequest(req.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if got != req {
			t.Fatalf("round trip: got %+v, want %+v", got, req)
		}
	}
	for _, bad := range [][]byte{
		nil,
		{9},
		{byte(DigestSummary), 0xFF},
		{byte(DigestFold), 0},
		{byte(DigestDetail)},
		{byte(DigestDetail), 0, 1, 2},
	} {
		if _, err := ParseDigestRequest(bad); err == nil {
			t.Fatalf("parsed malformed request % x", bad)
		}
	}
}

func TestDigestReplyRoundTrip(t *testing.T) {
	sums := &DigestReply{Kind: DigestSummary, Sums: []uint64{0, 1, ^uint64(0), 0xdeadbeef}}
	detail := &DigestReply{
		Kind: DigestDetail, Bucket: 3, Part: 1, Parts: 2,
		Keys: []DigestKeySum{{Key: "flow/1", Sum: 17}, {Key: "", Sum: 0}},
	}
	fold := &DigestReply{Kind: DigestFold, Fold: ^uint64(0) - 1}
	for _, in := range []*DigestReply{fold, sums, detail, {Kind: DigestFold}, {Kind: DigestSummary}, {Kind: DigestDetail, Parts: 1}} {
		val, err := in.Encode()
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		// The payload must survive a full frame round trip too.
		m := Message{Type: TypeDigestReply, Seq: 9, Value: val}
		frame, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var dm Message
		if err := dm.UnmarshalBinary(frame); err != nil {
			t.Fatal(err)
		}
		out, err := ParseDigestReply(dm.Value)
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if out.Kind != in.Kind || out.Fold != in.Fold || out.Bucket != in.Bucket || out.Part != in.Part || out.Parts != in.Parts {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
		if len(out.Sums) != len(in.Sums) || len(out.Keys) != len(in.Keys) {
			t.Fatalf("round trip lengths: got %+v, want %+v", out, in)
		}
		for i := range in.Sums {
			if out.Sums[i] != in.Sums[i] {
				t.Fatalf("sum %d: got %d, want %d", i, out.Sums[i], in.Sums[i])
			}
		}
		for i := range in.Keys {
			if out.Keys[i] != in.Keys[i] {
				t.Fatalf("key %d: got %+v, want %+v", i, out.Keys[i], in.Keys[i])
			}
		}
	}
	// Oversize and malformed payloads are rejected.
	if _, err := (&DigestReply{Kind: DigestSummary, Sums: make([]uint64, MaxDigestBuckets+1)}).Encode(); err == nil {
		t.Fatal("encoded oversize sums block")
	}
	if _, err := (&DigestReply{Kind: DigestDetail}).Encode(); err == nil {
		t.Fatal("encoded detail reply with zero parts")
	}
	if _, err := (&DigestReply{Kind: DigestDetail, Parts: 1,
		Keys: []DigestKeySum{{Key: strings.Repeat("k", MaxKeyLen+1)}}}).Encode(); err == nil {
		t.Fatal("encoded oversize digest key")
	}
	if _, err := ParseDigestReply([]byte{byte(DigestFold), 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("parsed truncated fold")
	}
	if _, err := ParseDigestReply([]byte{byte(DigestSummary), 0, 2, 1}); err == nil {
		t.Fatal("parsed truncated sums block")
	}
	if _, err := ParseDigestReply([]byte{byte(DigestDetail), 0, 0, 0, 0, 0, 0, 0, 1, 9}); err == nil {
		t.Fatal("parsed truncated detail block")
	}
}

func TestDigestDetailFits(t *testing.T) {
	big := make([]DigestKeySum, 2000)
	for i := range big {
		big[i] = DigestKeySum{Key: strings.Repeat("x", 50), Sum: uint64(i)}
	}
	n := DigestDetailFits(big)
	if n <= 0 || n >= len(big) {
		t.Fatalf("fits = %d of %d", n, len(big))
	}
	chunk := &DigestReply{Kind: DigestDetail, Parts: 1, Keys: big[:n]}
	if _, err := chunk.Encode(); err != nil {
		t.Fatalf("DigestDetailFits-bounded chunk does not encode: %v", err)
	}
	over := &DigestReply{Kind: DigestDetail, Parts: 1, Keys: big[:n+1]}
	if _, err := over.Encode(); err == nil {
		t.Fatal("chunk one past the fit bound encoded")
	}
}
