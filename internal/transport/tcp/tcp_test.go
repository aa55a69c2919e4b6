package tcp_test

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/transport/conformance"
	"repro/internal/transport/tcp"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Backend{
		Name: "tcp",
		New: func(t *testing.T, seed int64, opts transport.Options, universe ids.Set) conformance.Harness {
			addrs, err := tcp.FreeAddrs(universe.Members()...)
			if err != nil {
				t.Fatal(err)
			}
			n := tcp.New(tcp.Config{Addrs: addrs, Seed: seed, Opts: opts})
			return conformance.Harness{Net: n, Settle: time.Sleep}
		},
	})
}

// TestCrossProcessShape runs two *separate* transports (the shape two
// noded processes have) against one address book: frames really cross
// the loopback sockets, survive a receiver restart via redial, and
// unreachable destinations degrade to omission.
func TestCrossProcessShape(t *testing.T) {
	addrs, err := tcp.FreeAddrs(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := transport.Options{Capacity: 64, TickEvery: time.Millisecond}

	a := tcp.New(tcp.Config{Addrs: addrs, Seed: 1, Opts: opts})
	defer a.Close()
	if err := a.AddNode(1, nopHandler{}); err != nil {
		t.Fatal(err)
	}

	// Destination not up yet: sends degrade to drops, not blocks.
	for i := 0; i < 5; i++ {
		a.Send(1, 2, i)
	}

	b := tcp.New(tcp.Config{Addrs: addrs, Seed: 2, Opts: opts})
	defer b.Close()
	rx := &countHandler{}
	if err := b.AddNode(2, rx); err != nil {
		t.Fatal(err)
	}

	deliver := func(want int, desc string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			got := 0
			if !b.Inspect(2, func() { got = rx.n }) {
				t.Fatalf("%s: inspect failed", desc)
			}
			if got >= want {
				return
			}
			a.Send(1, 2, "ping")
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("%s: never delivered", desc)
	}
	deliver(1, "initial delivery")

	// Tear the receiver down and bring a fresh transport up on the same
	// address: the sender's link must redial and deliver again.
	b.Close()
	time.Sleep(10 * time.Millisecond)
	b2 := tcp.New(tcp.Config{Addrs: addrs, Seed: 3, Opts: opts})
	defer b2.Close()
	rx2 := &countHandler{}
	if err := b2.AddNode(2, rx2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		got := 0
		if !b2.Inspect(2, func() { got = rx2.n }) {
			t.Fatal("inspect failed after restart")
		}
		if got >= 1 {
			if a.Stats().Redials == 0 {
				t.Log("note: delivery resumed without a recorded redial")
			}
			return
		}
		a.Send(1, 2, "ping-after-restart")
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("delivery never resumed after receiver restart")
}

// TestCodecRefusalDropsOnlyThatMessage: a payload the codec refuses
// is dropped alone — the messages queued around it still arrive over
// the same connection, and Dropped counts exactly the one refusal.
func TestCodecRefusalDropsOnlyThatMessage(t *testing.T) {
	addrs, err := tcp.FreeAddrs(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := transport.Options{Capacity: 64, TickEvery: time.Millisecond}
	a := tcp.New(tcp.Config{Addrs: addrs, Seed: 1, Opts: opts})
	defer a.Close()
	b := tcp.New(tcp.Config{Addrs: addrs, Seed: 2, Opts: opts})
	defer b.Close()
	if err := a.AddNode(1, nopHandler{}); err != nil {
		t.Fatal(err)
	}
	rx := &recordHandler{}
	if err := b.AddNode(2, rx); err != nil {
		t.Fatal(err)
	}

	type unsupported struct{ X int }
	a.Send(1, 2, "good-1")
	a.Send(1, 2, unsupported{X: 1})
	a.Send(1, 2, "good-2")

	deadline := time.Now().Add(10 * time.Second)
	var got []any
	for time.Now().Before(deadline) {
		if !b.Inspect(2, func() { got = append([]any(nil), rx.got...) }) {
			t.Fatal("inspect failed")
		}
		if len(got) >= 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if len(got) != 2 || got[0] != "good-1" || got[1] != "good-2" {
		t.Fatalf("received %v, want [good-1 good-2]", got)
	}
	if st := a.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1 (the refused message only)", st.Dropped)
	}
}

type nopHandler struct{}

func (nopHandler) Receive(ids.ID, any) {}
func (nopHandler) Tick()               {}

type recordHandler struct{ got []any }

func (h *recordHandler) Receive(_ ids.ID, p any) { h.got = append(h.got, p) }
func (h *recordHandler) Tick()                   {}

type countHandler struct{ n int }

func (h *countHandler) Receive(ids.ID, any) { h.n++ }
func (h *countHandler) Tick()               {}
