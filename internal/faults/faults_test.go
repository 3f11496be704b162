package faults

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// writeN appends n writes of the given payload through fsys, returning the
// first error.
func writeN(t *testing.T, fsys FS, path string, n int, payload []byte) error {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	for i := 0; i < n; i++ {
		if _, err := f.Write(payload); err != nil {
			return err
		}
	}
	return f.Sync()
}

func TestInjectorFailWriteN(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(Disk{}, Plan{Seed: 1, FailWriteN: 3})
	err := writeN(t, in, filepath.Join(dir, "f"), 5, []byte("abcd"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	data, _ := os.ReadFile(filepath.Join(dir, "f"))
	if len(data) != 8 { // exactly two writes landed before the third failed
		t.Fatalf("file holds %d bytes, want 8", len(data))
	}
	if st := in.Stats(); st.Injected != 1 || st.Writes != 3 {
		t.Fatalf("stats = %+v, want 1 injected across 3 writes", st)
	}
}

func TestInjectorTornWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(Disk{}, Plan{Seed: 7, TornWriteN: 1})
	err := writeN(t, in, filepath.Join(dir, "f"), 1, []byte("abcdefgh"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	data, _ := os.ReadFile(filepath.Join(dir, "f"))
	if len(data) >= 8 {
		t.Fatalf("torn write persisted %d bytes, want a strict prefix of 8", len(data))
	}
}

func TestInjectorCrashIsTerminal(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(Disk{}, Plan{Seed: 3, CrashAtOp: 2})
	path := filepath.Join(dir, "f")
	err := writeN(t, in, path, 5, []byte("x"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if !in.Crashed() {
		t.Fatal("injector not marked crashed")
	}
	// Every later operation fails, including opens of other files.
	if _, err := in.Open(path); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Open err = %v, want ErrCrashed", err)
	}
	if err := in.Rename(path, path+"2"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Rename err = %v, want ErrCrashed", err)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() (int, Stats) {
		dir := t.TempDir()
		in := NewInjector(Disk{}, Plan{Seed: 42, ShortWriteProb: 0.3})
		n := 0
		for i := 0; i < 50; i++ {
			if err := writeN(t, in, filepath.Join(dir, "f"), 1, []byte("0123456789")); err == nil {
				n++
			}
		}
		return n, in.Stats()
	}
	n1, s1 := run()
	n2, s2 := run()
	if n1 != n2 || s1.Injected != s2.Injected {
		t.Fatalf("same seed diverged: %d/%+v vs %d/%+v", n1, s1, n2, s2)
	}
	if s1.Injected == 0 {
		t.Fatal("ShortWriteProb=0.3 over 50 writes injected nothing")
	}
}

func TestInjectorBitFlipRead(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("hello world"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(Disk{}, Plan{Seed: 9, FlipReadBitN: 1})
	f, err := in.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 11)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) == "hello world" {
		t.Fatal("first ReadAt returned unflipped data")
	}
	// The file itself is untouched and a second read is clean.
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello world" {
		t.Fatalf("second ReadAt = %q, want clean data", buf)
	}
}

func TestInjectorOpenFileAccounting(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(Disk{}, Plan{})
	f1, err := in.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := in.Create(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if st := in.Stats(); st.OpenFiles != 2 {
		t.Fatalf("OpenFiles = %d, want 2", st.OpenFiles)
	}
	f1.Close()
	f2.Close()
	if st := in.Stats(); st.OpenFiles != 0 {
		t.Fatalf("OpenFiles after close = %d, want 0", st.OpenFiles)
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("seed=42, failsync=3,tornwrite=5,flipreadp=0.25,opdelay=2ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 42, FailSyncN: 3, TornWriteN: 5, FlipReadBitProb: 0.25, MaxOpDelay: 2 * time.Millisecond}
	if p != want {
		t.Fatalf("plan = %+v, want %+v", p, want)
	}
	if p, err := ParseSpec(""); err != nil || p != (Plan{}) {
		t.Fatalf("empty spec = %+v, %v", p, err)
	}
	for _, bad := range []string{"seed", "bogus=1", "seed=x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestPlanIdle: a key is idle on a run that faults none of its planes.
func TestPlanIdle(t *testing.T) {
	p, err := ParseSpec("seed=1,failsync=3,resetp=0.5,dropp=0.1,opdelay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		on   int
		want []string
	}{
		{DiskPlane, []string{"resetp", "dropp"}},
		{ConnPlane, []string{"failsync", "dropp"}},
		{DiskPlane | ConnPlane, []string{"dropp"}},
		{LinkPlane, []string{"failsync"}},
		{0, []string{"failsync", "resetp", "dropp", "opdelay"}},
	} {
		if got := p.Idle(c.on); !slices.Equal(got, c.want) {
			t.Errorf("Idle(%b) = %v, want %v", c.on, got, c.want)
		}
	}
}

func TestTransportDeterminism(t *testing.T) {
	draw := func() (int, int, int) {
		tr := NewTransport(Plan{Seed: 11, DropProb: 0.2, DupProb: 0.2, ResetProb: 0.05, MaxOpDelay: time.Second})
		for i := 0; i < 500; i++ {
			tr.Decide()
		}
		return tr.Drops, tr.Dups, tr.Resets
	}
	d1, u1, r1 := draw()
	d2, u2, r2 := draw()
	if d1 != d2 || u1 != u2 || r1 != r2 {
		t.Fatalf("same seed diverged: %d/%d/%d vs %d/%d/%d", d1, u1, r1, d2, u2, r2)
	}
	if d1 == 0 || u1 == 0 || r1 == 0 {
		t.Fatalf("500 draws injected nothing in some class: drops %d dups %d resets %d", d1, u1, r1)
	}
}

// TestConnDeterminism: a Conn draws its delays and resets from Seed^salt in
// a fixed order, a delay then a reset per op, so the same plan and salt give
// the same sequence and a spec keeps the faults it drew before the Plan
// carried connection faults.
func TestConnDeterminism(t *testing.T) {
	plan := Plan{Seed: 5, ResetProb: 0.2, MaxOpDelay: 4 * time.Millisecond}
	type op struct {
		sleep time.Duration
		reset bool
	}
	draw := func(salt int64) []op {
		c := NewConn(nil, plan, salt)
		var ops []op
		for i := 0; i < 200; i++ {
			sleep, reset := c.draw()
			ops = append(ops, op{sleep, reset})
		}
		return ops
	}
	ref := rand.New(rand.NewSource(plan.Seed ^ 3))
	resets := 0
	for i, got := range draw(3) {
		want := op{time.Duration(ref.Int63n(int64(plan.MaxOpDelay))), ref.Float64() < plan.ResetProb}
		if got != want {
			t.Fatalf("op %d drew %+v, want %+v", i, got, want)
		}
		if got.reset {
			resets++
		}
	}
	if resets == 0 {
		t.Fatal("ResetProb=0.2 over 200 ops drew no reset")
	}
	if slices.Equal(draw(3), draw(4)) {
		t.Fatal("salts 3 and 4 drew the same sequence")
	}
}

// Crashed reports whether the Plan's crash point has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}
