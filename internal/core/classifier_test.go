package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

var (
	t0    = time.Date(1996, 8, 1, 12, 0, 0, 0, time.UTC)
	peerA = PeerKey{AS: 690, Addr: netaddr.MustParseAddr("198.32.186.1")}
	peerB = PeerKey{AS: 701, Addr: netaddr.MustParseAddr("198.32.186.7")}
	pfxX  = netaddr.MustParsePrefix("192.42.113.0/24")
	pfxY  = netaddr.MustParsePrefix("35.0.0.0/8")
)

func attrs1() bgp.Attrs {
	return bgp.Attrs{Origin: bgp.OriginIGP, Path: bgp.PathFromASNs(690, 237), NextHop: 1}
}

func attrs2() bgp.Attrs {
	return bgp.Attrs{Origin: bgp.OriginIGP, Path: bgp.PathFromASNs(690, 1239, 237), NextHop: 1}
}

func ann(t time.Time, p PeerKey, prefix netaddr.Prefix, a bgp.Attrs) collector.Record {
	return collector.Record{Time: t, Type: collector.Announce, PeerAS: p.AS, PeerAddr: p.Addr, Prefix: prefix, Attrs: a}
}

func wd(t time.Time, p PeerKey, prefix netaddr.Prefix) collector.Record {
	return collector.Record{Time: t, Type: collector.Withdraw, PeerAS: p.AS, PeerAddr: p.Addr, Prefix: prefix}
}

func TestFirstAnnouncementIsOther(t *testing.T) {
	c := NewClassifier()
	ev := c.Classify(ann(t0, peerA, pfxX, attrs1()))
	if ev.Class != Other {
		t.Fatalf("class %v", ev.Class)
	}
	if active := c.ActiveByPeer(); active[peerA] != 1 || len(active) != 1 {
		t.Fatalf("active accounting wrong: %v", active)
	}
}

func TestAADup(t *testing.T) {
	c := NewClassifier()
	c.Classify(ann(t0, peerA, pfxX, attrs1()))
	ev := c.Classify(ann(t0.Add(30*time.Second), peerA, pfxX, attrs1()))
	if ev.Class != AADup || ev.PolicyShift {
		t.Fatalf("event %+v", ev)
	}
	if c.ActiveByPeer()[peerA] != 1 {
		t.Fatal("duplicate should not grow active count")
	}
}

func TestAADupPolicyShift(t *testing.T) {
	c := NewClassifier()
	c.Classify(ann(t0, peerA, pfxX, attrs1()))
	a := attrs1()
	a.Communities = []bgp.Community{bgp.Community(690<<16 | 1)}
	ev := c.Classify(ann(t0.Add(time.Minute), peerA, pfxX, a))
	if ev.Class != AADup || !ev.PolicyShift {
		t.Fatalf("event %+v", ev)
	}
}

func TestAADiff(t *testing.T) {
	c := NewClassifier()
	c.Classify(ann(t0, peerA, pfxX, attrs1()))
	ev := c.Classify(ann(t0.Add(time.Minute), peerA, pfxX, attrs2()))
	if ev.Class != AADiff {
		t.Fatalf("class %v", ev.Class)
	}
}

func TestWADupAndWADiff(t *testing.T) {
	c := NewClassifier()
	c.Classify(ann(t0, peerA, pfxX, attrs1()))
	evW := c.Classify(wd(t0.Add(time.Minute), peerA, pfxX))
	if evW.Class != Other {
		t.Fatalf("legit withdrawal class %v", evW.Class)
	}
	if _, ok := c.ActiveByPeer()[peerA]; ok {
		t.Fatal("withdrawal should clear active count")
	}
	// Identical re-announcement: WADup.
	ev := c.Classify(ann(t0.Add(2*time.Minute), peerA, pfxX, attrs1()))
	if ev.Class != WADup {
		t.Fatalf("class %v", ev.Class)
	}
	// Withdraw again, re-announce different: WADiff.
	c.Classify(wd(t0.Add(3*time.Minute), peerA, pfxX))
	ev = c.Classify(ann(t0.Add(4*time.Minute), peerA, pfxX, attrs2()))
	if ev.Class != WADiff {
		t.Fatalf("class %v", ev.Class)
	}
}

func TestWWDup(t *testing.T) {
	c := NewClassifier()
	// Withdrawal from a peer that never announced the prefix — the paper's
	// headline pathology (ISP-Y withdrawing ISP-X's route).
	ev := c.Classify(wd(t0, peerB, pfxX))
	if ev.Class != WWDup {
		t.Fatalf("class %v", ev.Class)
	}
	// Repeat withdrawals keep being WWDup.
	for i := 1; i <= 5; i++ {
		ev = c.Classify(wd(t0.Add(time.Duration(i)*30*time.Second), peerB, pfxX))
		if ev.Class != WWDup {
			t.Fatalf("iteration %d class %v", i, ev.Class)
		}
	}
	// After announce+withdraw, the next withdrawal is WWDup again.
	c.Classify(ann(t0.Add(time.Hour), peerB, pfxX, attrs1()))
	c.Classify(wd(t0.Add(time.Hour+time.Minute), peerB, pfxX))
	ev = c.Classify(wd(t0.Add(time.Hour+2*time.Minute), peerB, pfxX))
	if ev.Class != WWDup {
		t.Fatalf("class %v", ev.Class)
	}
}

func TestPeersIndependent(t *testing.T) {
	c := NewClassifier()
	c.Classify(ann(t0, peerA, pfxX, attrs1()))
	// Peer B announcing the same prefix is B's first announcement.
	ev := c.Classify(ann(t0.Add(time.Second), peerB, pfxX, attrs1()))
	if ev.Class != Other {
		t.Fatalf("class %v", ev.Class)
	}
	// B's withdrawal does not disturb A's state.
	c.Classify(wd(t0.Add(2*time.Second), peerB, pfxX))
	ev = c.Classify(ann(t0.Add(3*time.Second), peerA, pfxX, attrs1()))
	if ev.Class != AADup {
		t.Fatalf("class %v", ev.Class)
	}
}

func TestPrefixesIndependent(t *testing.T) {
	c := NewClassifier()
	c.Classify(ann(t0, peerA, pfxX, attrs1()))
	ev := c.Classify(ann(t0.Add(time.Second), peerA, pfxY, attrs1()))
	if ev.Class != Other {
		t.Fatalf("class %v", ev.Class)
	}
	if n := c.ActiveByPeer()[peerA]; n != 2 {
		t.Fatalf("active %d", n)
	}
}

func TestSessionRecordsIgnored(t *testing.T) {
	c := NewClassifier()
	rec := collector.Record{Time: t0, Type: collector.SessionUp, PeerAS: peerA.AS, PeerAddr: peerA.Addr}
	if ev := c.Classify(rec); ev.Class != Other {
		t.Fatalf("class %v", ev.Class)
	}
	if len(c.routes) != 0 {
		t.Fatal("session record created route state")
	}
}

func TestInterArrivalTimes(t *testing.T) {
	c := NewClassifier()
	c.Classify(ann(t0, peerA, pfxX, attrs1()))
	ev := c.Classify(ann(t0.Add(30*time.Second), peerA, pfxX, attrs1())) // AADup
	if ev.SinceAny != 30*time.Second {
		t.Fatalf("SinceAny %v", ev.SinceAny)
	}
	ev = c.Classify(wd(t0.Add(50*time.Second), peerA, pfxX)) // a withdrawal: any class counts
	if ev.SinceAny != 20*time.Second {
		t.Fatalf("SinceAny after a different class %v", ev.SinceAny)
	}
}

func TestClassPredicates(t *testing.T) {
	if !AADiff.IsInstability() || !WADiff.IsInstability() || !WADup.IsInstability() {
		t.Fatal("instability predicate wrong")
	}
	if AADup.IsInstability() || WWDup.IsInstability() || Other.IsInstability() {
		t.Fatal("pathology classified as instability")
	}
	if !AADup.IsPathological() || !WWDup.IsPathological() {
		t.Fatal("pathology predicate wrong")
	}
	if !AADiff.IsForwarding() || !WADiff.IsForwarding() || WADup.IsForwarding() {
		t.Fatal("forwarding predicate wrong")
	}
	if len(Classes()) != NumClasses {
		t.Fatal("Classes() incomplete")
	}
	for _, c := range Classes() {
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
	if Class(42).String() == "" {
		t.Fatal("unknown class should print")
	}
}

// TestClassifierInvariants drives a random stream through the classifier and
// checks structural invariants against a reference model.
func TestClassifierInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := NewClassifier()
	type refState struct {
		announced bool
		ever      bool
		last      bgp.Attrs
	}
	ref := map[stateKey]*refState{}
	peers := []PeerKey{peerA, peerB, {AS: 1239, Addr: 9}}
	prefixes := []netaddr.Prefix{pfxX, pfxY, netaddr.MustParsePrefix("141.213.0.0/16")}
	attrsPool := []bgp.Attrs{attrs1(), attrs2(), {Origin: bgp.OriginEGP, Path: bgp.PathFromASNs(3561, 237), NextHop: 7}}
	now := t0
	var counts [NumClasses]int
	for i := 0; i < 20000; i++ {
		now = now.Add(time.Duration(rng.Intn(100)) * time.Second)
		p := peers[rng.Intn(len(peers))]
		prefix := prefixes[rng.Intn(len(prefixes))]
		key := stateKey{peer: p, prefix: prefix}
		st := ref[key]
		if st == nil {
			st = &refState{}
			ref[key] = st
		}
		var ev Event
		if rng.Intn(2) == 0 {
			a := attrsPool[rng.Intn(len(attrsPool))]
			ev = c.Classify(ann(now, p, prefix, a))
			var want Class
			switch {
			case st.announced && st.last.ForwardingEqual(&a):
				want = AADup
			case st.announced:
				want = AADiff
			case st.ever && st.last.ForwardingEqual(&a):
				want = WADup
			case st.ever:
				want = WADiff
			default:
				want = Other
			}
			if ev.Class != want {
				t.Fatalf("step %d: announce class %v, want %v", i, ev.Class, want)
			}
			st.announced, st.ever, st.last = true, true, a
		} else {
			ev = c.Classify(wd(now, p, prefix))
			want := WWDup
			if st.announced {
				want = Other
			}
			if ev.Class != want {
				t.Fatalf("step %d: withdraw class %v, want %v", i, ev.Class, want)
			}
			st.announced = false
		}
		counts[ev.Class]++
	}
	// The classes partition the stream.
	total := 0
	for _, v := range counts {
		total += v
	}
	if total != 20000 {
		t.Fatalf("classified %d of 20000", total)
	}
	// Active accounting agrees with the reference.
	active := map[PeerKey]int{}
	for k, st := range ref {
		if st.announced {
			active[k.peer]++
		}
	}
	if got := c.ActiveByPeer(); !reflect.DeepEqual(got, active) {
		t.Fatalf("active %v, want %v", got, active)
	}
}

func BenchmarkClassify(b *testing.B) {
	c := NewClassifier()
	recs := []collector.Record{
		ann(t0, peerA, pfxX, attrs1()),
		wd(t0.Add(time.Second), peerA, pfxX),
		ann(t0.Add(2*time.Second), peerA, pfxX, attrs1()),
		wd(t0.Add(3*time.Second), peerB, pfxX),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Classify(recs[i%len(recs)])
	}
}
