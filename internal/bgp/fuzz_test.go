package bgp

import (
	"bytes"
	"reflect"
	"testing"

	"instability/internal/netaddr"
)

// FuzzUnmarshalAttrs feeds arbitrary bytes through the attribute decoder and
// checks the round-trip invariant: anything that decodes must re-encode, and
// the re-encoding must decode back to an equal tuple. The decoder must never
// panic on garbage — segment blocks and WAL tails hand it raw disk bytes.
func FuzzUnmarshalAttrs(f *testing.F) {
	seed := []Attrs{
		{},
		{Origin: OriginIGP, Path: PathFromASNs(3561, 701), NextHop: 0x0a000001},
		{
			Origin:       OriginEGP,
			Path:         PathFromASNs(1239, 3561, 690).Prepend(1239),
			NextHop:      0xc0a80101,
			MED:          42,
			HasMED:       true,
			LocalPref:    100,
			HasLocalPref: true,
			Communities:  []Community{0x02bd0001, 0x02bd0002},
		},
		{
			Origin:          OriginIncomplete,
			Path:            ASPath{Segments: []PathSegment{{Type: ASSet, ASNs: []ASN{690, 701, 1800}}}},
			NextHop:         1,
			AtomicAggregate: true,
			HasAggregator:   true,
			AggregatorAS:    690,
			AggregatorAddr:  0x0a0a0a0a,
		},
	}
	for _, a := range seed {
		w, err := MarshalAttrs(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(w)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalAttrs(data)
		if err != nil {
			return
		}
		w, err := MarshalAttrs(a)
		if err != nil {
			t.Fatalf("decoded attrs failed to re-encode: %v", err)
		}
		b, err := UnmarshalAttrs(w)
		if err != nil {
			t.Fatalf("re-encoded attrs failed to decode: %v", err)
		}
		if !a.PolicyEqual(&b) {
			t.Fatalf("round-trip changed attrs: %+v != %+v", a, b)
		}
		// Canonical encodings are a fixed point: encoding the decoded form
		// again must be byte-identical.
		w2, err := MarshalAttrs(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, w2) {
			t.Fatalf("re-encoding is not canonical: %x != %x", w, w2)
		}
		// AppendAttrs writes the same bytes after whatever its buffer holds,
		// and leaves those untouched.
		prefix := data[:len(data)/2]
		got, err := AppendAttrs(bytes.Clone(prefix), &a)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(bytes.Clone(prefix), w...); !bytes.Equal(got, want) {
			t.Fatalf("AppendAttrs(%x) = %x, want %x", prefix, got, want)
		}
	})
}

// FuzzUnmarshalMessage feeds arbitrary bytes to the message decoder, which
// reads what any TCP peer of bgpcollect sends: it must never panic, and any
// message it accepts must re-marshal and decode to an equal message.
func FuzzUnmarshalMessage(f *testing.F) {
	pfx := func(s string) netaddr.Prefix {
		p, err := netaddr.ParsePrefix(s)
		if err != nil {
			f.Fatal(err)
		}
		return p
	}
	for _, m := range []Message{
		Open{Version: 4, AS: 690, HoldTime: 90, BGPID: 0x0a000001, OptParms: []byte{2, 0}},
		Update{
			Withdrawn: []netaddr.Prefix{pfx("192.0.2.0/24"), pfx("10.0.0.0/8")},
			Attrs: Attrs{
				Origin:      OriginIGP,
				Path:        PathFromASNs(701, 3561),
				NextHop:     0xc0a80101,
				MED:         10,
				HasMED:      true,
				Communities: []Community{0x02bd0001},
			},
			Announced: []netaddr.Prefix{pfx("198.51.100.0/22"), pfx("203.0.113.128/25")},
		},
		Notification{Code: NotifCease, Subcode: 2, Data: []byte{1, 2}},
		Keepalive{},
	} {
		b, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("decoded %T failed to re-marshal: %v", m, err)
		}
		m2, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("re-marshalled %T failed to decode: %v", m, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed the message:\n %#v\n %#v", m, m2)
		}
	})
}
