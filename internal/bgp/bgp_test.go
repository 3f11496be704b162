package bgp

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"testing/quick"

	"instability/internal/netaddr"
)

func TestKeepaliveRoundTrip(t *testing.T) {
	b, err := Marshal(Keepalive{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != HeaderLen {
		t.Fatalf("keepalive length %d", len(b))
	}
	m, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type() != MsgKeepalive {
		t.Fatalf("type %v", m.Type())
	}
}

func TestOpenRoundTrip(t *testing.T) {
	o := Open{Version: 4, AS: 690, HoldTime: 180, BGPID: netaddr.MustParseAddr("198.32.186.1")}
	b, err := Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.(Open)
	if !ok {
		t.Fatalf("decoded %T", m)
	}
	if !reflect.DeepEqual(got, o) {
		t.Fatalf("got %+v want %+v", got, o)
	}
}

func TestOpenWithOptParms(t *testing.T) {
	o := Open{Version: 4, AS: 1, HoldTime: 90, BGPID: 1, OptParms: []byte{1, 2, 3}}
	b, err := Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(Open); !bytes.Equal(got.OptParms, o.OptParms) {
		t.Fatalf("optparms %v", got.OptParms)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := Notification{Code: NotifHoldTimerExpired, Subcode: 0, Data: []byte("late")}
	b, err := Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(Notification)
	if got.Code != n.Code || !bytes.Equal(got.Data, n.Data) {
		t.Fatalf("got %+v", got)
	}
	if got.Error() == "" {
		t.Fatal("notification should describe itself as an error")
	}
}

func testAttrs() Attrs {
	return Attrs{
		Origin:  OriginIGP,
		Path:    PathFromASNs(690, 1239, 174),
		NextHop: netaddr.MustParseAddr("192.41.177.69"),
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := Update{
		Withdrawn: []netaddr.Prefix{
			netaddr.MustParsePrefix("192.42.113.0/24"),
			netaddr.MustParsePrefix("10.0.0.0/8"),
		},
		Attrs: Attrs{
			Origin:          OriginEGP,
			Path:            ASPath{Segments: []PathSegment{{Type: ASSequence, ASNs: []ASN{690, 701}}, {Type: ASSet, ASNs: []ASN{1800, 1239}}}},
			NextHop:         netaddr.MustParseAddr("198.32.186.7"),
			HasMED:          true,
			MED:             50,
			HasLocalPref:    true,
			LocalPref:       100,
			AtomicAggregate: true,
			HasAggregator:   true,
			AggregatorAS:    690,
			AggregatorAddr:  netaddr.MustParseAddr("198.32.186.1"),
			Communities:     []Community{Community(690<<16 | 100), Community(690<<16 | 200)},
		},
		Announced: []netaddr.Prefix{
			netaddr.MustParsePrefix("35.0.0.0/8"),
			netaddr.MustParsePrefix("141.213.0.0/16"),
			netaddr.MustParsePrefix("198.108.0.0/17"),
			netaddr.MustParsePrefix("0.0.0.0/0"),
		},
	}
	b, err := Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(Update)
	if !reflect.DeepEqual(got, u) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, u)
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	u := Update{Withdrawn: []netaddr.Prefix{netaddr.MustParsePrefix("192.42.113.0/24")}}
	b, err := Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(Update)
	if len(got.Announced) != 0 || len(got.Withdrawn) != 1 {
		t.Fatalf("got %+v", got)
	}
}

func TestUpdateEmptyPathLocalOrigination(t *testing.T) {
	u := Update{
		Attrs:     Attrs{Origin: OriginIGP, NextHop: 1},
		Announced: []netaddr.Prefix{netaddr.MustParsePrefix("10.0.0.0/8")},
	}
	b, err := Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(Update)
	if got.Attrs.Path.Len() != 0 {
		t.Fatalf("path %v", got.Attrs.Path)
	}
}

func randomPrefix(rng *rand.Rand) netaddr.Prefix {
	bits := rng.Intn(25) + 8
	return netaddr.MustPrefix(netaddr.Addr(rng.Uint32()), bits)
}

func TestUpdateRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		var u Update
		for n := rng.Intn(5); n > 0; n-- {
			u.Withdrawn = append(u.Withdrawn, randomPrefix(rng))
		}
		nAnn := rng.Intn(5)
		if nAnn > 0 {
			asns := make([]ASN, rng.Intn(6)+1)
			for j := range asns {
				asns[j] = ASN(rng.Intn(65535) + 1)
			}
			u.Attrs = Attrs{
				Origin:  OriginCode(rng.Intn(3)),
				Path:    PathFromASNs(asns...),
				NextHop: netaddr.Addr(rng.Uint32()),
			}
			if rng.Intn(2) == 0 {
				u.Attrs.HasMED = true
				u.Attrs.MED = rng.Uint32()
			}
			for n := nAnn; n > 0; n-- {
				u.Announced = append(u.Announced, randomPrefix(rng))
			}
		}
		b, err := Marshal(u)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		m, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got := m.(Update)
		if !reflect.DeepEqual(got, u) {
			t.Fatalf("case %d mismatch\ngot  %+v\nwant %+v", i, got, u)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0}, HeaderLen), // bad marker
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Valid keepalive with corrupted declared length.
	b, _ := Marshal(Keepalive{})
	b[16], b[17] = 0xff, 0xff
	if _, err := Unmarshal(b); !errors.Is(err, ErrBadLength) {
		t.Errorf("bad length: got %v", err)
	}
	// Bad type.
	b, _ = Marshal(Keepalive{})
	b[18] = 99
	if _, err := Unmarshal(b); err == nil {
		t.Error("bad type accepted")
	}
}

func TestUnmarshalTruncatedUpdates(t *testing.T) {
	u := Update{
		Attrs:     testAttrs(),
		Announced: []netaddr.Prefix{netaddr.MustParsePrefix("35.0.0.0/8")},
	}
	full, err := Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	// Every strict truncation of the body must either be rejected or decode
	// to a message that lost the announcement (cutting on an exact NLRI
	// boundary yields a legal attrs-only UPDATE). It must never panic or
	// fabricate routes.
	for cut := HeaderLen; cut < len(full); cut++ {
		b := append([]byte(nil), full[:cut]...)
		// Fix up length so header checks pass and body parsing is exercised.
		b[16], b[17] = byte(cut>>8), byte(cut)
		m, err := Unmarshal(b)
		if err != nil {
			continue
		}
		if got := m.(Update); len(got.Announced) != 0 {
			t.Errorf("truncation at %d fabricated announcements %v", cut, got.Announced)
		}
	}
}

func TestAttrsFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		b := make([]byte, n)
		rng.Read(b)
		_, _ = unmarshalAttrs(b) // must not panic
		_, _ = parseNLRIList(b)
		_, _ = unmarshalASPath(b)
	}
}

// readMessage reads one framed message from r the way a session does:
// ReadRaw, then Unmarshal.
func readMessage(r io.Reader) (Message, error) {
	buf, err := ReadRaw(r)
	if err != nil {
		return nil, err
	}
	return Unmarshal(buf)
}

func TestReadWriteMessageStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		Open{Version: 4, AS: 690, HoldTime: 180, BGPID: 42},
		Keepalive{},
		Update{Attrs: testAttrs(), Announced: []netaddr.Prefix{netaddr.MustParsePrefix("35.0.0.0/8")}},
		Notification{Code: NotifCease},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := readMessage(&buf)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("msg %d: type %v want %v", i, got.Type(), want.Type())
		}
	}
	if _, err := readMessage(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReadMessageShortStream(t *testing.T) {
	b, _ := Marshal(Open{Version: 4, AS: 1, HoldTime: 180, BGPID: 9})
	r := bytes.NewReader(b[:len(b)-3])
	if _, err := readMessage(r); err == nil {
		t.Fatal("expected error on short stream")
	}
}

func TestReadMessageOverTCP(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		_ = WriteMessage(c1, Update{Attrs: testAttrs(), Announced: []netaddr.Prefix{netaddr.MustParsePrefix("141.213.0.0/16")}})
	}()
	m, err := readMessage(c2)
	if err != nil {
		t.Fatal(err)
	}
	u := m.(Update)
	if len(u.Announced) != 1 || u.Announced[0] != netaddr.MustParsePrefix("141.213.0.0/16") {
		t.Fatalf("got %+v", u)
	}
}

func TestASPathPrependContains(t *testing.T) {
	p := PathFromASNs(1239, 174)
	p2 := p.Prepend(690)
	if p2.Key() != "690 1239 174" {
		t.Fatalf("key %q", p2.Key())
	}
	if p.Key() != "1239 174" {
		t.Fatalf("prepend mutated receiver: %q", p.Key())
	}
	if !p2.Contains(690) || !p2.Contains(174) || p2.Contains(7) {
		t.Fatal("Contains wrong")
	}
	var empty ASPath
	p3 := empty.Prepend(690)
	if p3.Key() != "690" {
		t.Fatalf("prepend to empty: %q", p3.Key())
	}
}

func TestASPathLenOriginFirst(t *testing.T) {
	p := ASPath{Segments: []PathSegment{
		{Type: ASSequence, ASNs: []ASN{690, 701}},
		{Type: ASSet, ASNs: []ASN{1800, 1239}},
	}}
	if p.Len() != 3 { // set counts 1
		t.Fatalf("len %d", p.Len())
	}
	if o, ok := p.Origin(); !ok || o != 1800 {
		t.Fatalf("origin %v %v", o, ok)
	}
	if f, ok := p.First(); !ok || f != 690 {
		t.Fatalf("first %v %v", f, ok)
	}
	var empty ASPath
	if _, ok := empty.Origin(); ok {
		t.Fatal("empty path has no origin")
	}
	if _, ok := empty.First(); ok {
		t.Fatal("empty path has no first")
	}
	seq := PathFromASNs(690, 701, 1239)
	if o, _ := seq.Origin(); o != 1239 {
		t.Fatalf("seq origin %v", o)
	}
}

func TestASPathKeyDistinguishesSetFromSequence(t *testing.T) {
	seq := PathFromASNs(690, 701)
	set := ASPath{Segments: []PathSegment{{Type: ASSet, ASNs: []ASN{690, 701}}}}
	if seq.Key() == set.Key() {
		t.Fatal("set and sequence keys must differ")
	}
	if seq.Equal(set) {
		t.Fatal("set and sequence should not be Equal")
	}
}

func TestASPathKeyInjective(t *testing.T) {
	f := func(a, b []uint16) bool {
		pa := PathFromASNs(toASNs(a)...)
		pb := PathFromASNs(toASNs(b)...)
		return (pa.Key() == pb.Key()) == pa.Equal(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func toASNs(xs []uint16) []ASN {
	out := make([]ASN, len(xs))
	for i, x := range xs {
		out[i] = ASN(x)
	}
	return out
}

func TestAttrsEquality(t *testing.T) {
	a := testAttrs()
	b := testAttrs()
	if !a.ForwardingEqual(&b) || !a.PolicyEqual(&b) {
		t.Fatal("identical attrs must be equal")
	}
	b.Communities = []Community{1}
	if !a.ForwardingEqual(&b) {
		t.Fatal("community change should not affect forwarding equality")
	}
	if a.PolicyEqual(&b) {
		t.Fatal("community change is a policy change")
	}
	c := testAttrs()
	c.NextHop++
	if a.ForwardingEqual(&c) {
		t.Fatal("nexthop change is forwarding change")
	}
	d := testAttrs()
	d.Path = d.Path.Prepend(7)
	if a.ForwardingEqual(&d) {
		t.Fatal("path change is forwarding change")
	}
	// A value whose presence flag is clear is not on the wire, so it is no
	// part of the tuple: the two encode to the same bytes and are equal.
	e := testAttrs()
	e.MED, e.LocalPref, e.AggregatorAS, e.AggregatorAddr = 5, 100, 690, 1
	aw, err := MarshalAttrs(a)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := MarshalAttrs(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aw, ew) || !a.PolicyEqual(&e) || !e.PolicyEqual(&a) {
		t.Fatalf("unflagged MED, LOCAL_PREF and AGGREGATOR values: same wire bytes %v, PolicyEqual %v", bytes.Equal(aw, ew), a.PolicyEqual(&e))
	}
	f := e
	e.HasMED, f.HasMED, f.MED = true, true, e.MED+1
	if e.PolicyEqual(&f) {
		t.Fatal("a flagged MED change is a policy change")
	}
}

func TestCommunityString(t *testing.T) {
	c := Community(690<<16 | 120)
	if c.String() != "690:120" {
		t.Fatalf("got %q", c.String())
	}
}

func TestMsgTypeNotifCodeStrings(t *testing.T) {
	if MsgUpdate.String() != "UPDATE" || MsgType(9).String() == "" {
		t.Fatal("MsgType.String wrong")
	}
	if NotifCease.String() != "Cease" || NotifCode(42).String() == "" {
		t.Fatal("NotifCode.String wrong")
	}
	if OriginIGP.String() != "i" || OriginEGP.String() != "e" || OriginIncomplete.String() != "?" {
		t.Fatal("OriginCode.String wrong")
	}
}

func TestOversizeUpdateRejected(t *testing.T) {
	var u Update
	for i := 0; i < 1200; i++ {
		u.Withdrawn = append(u.Withdrawn, netaddr.MustPrefix(netaddr.Addr(uint32(i)<<8), 32))
	}
	if _, err := Marshal(u); !errors.Is(err, ErrMessageSize) {
		t.Fatalf("expected ErrMessageSize, got %v", err)
	}
}

func BenchmarkMarshalUpdate(b *testing.B) {
	u := Update{Attrs: testAttrs(), Announced: []netaddr.Prefix{
		netaddr.MustParsePrefix("35.0.0.0/8"),
		netaddr.MustParsePrefix("141.213.0.0/16"),
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalUpdate(b *testing.B) {
	u := Update{Attrs: testAttrs(), Announced: []netaddr.Prefix{
		netaddr.MustParsePrefix("35.0.0.0/8"),
		netaddr.MustParsePrefix("141.213.0.0/16"),
	}}
	buf, err := Marshal(u)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
