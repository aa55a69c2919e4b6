package inproc_test

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/transport/conformance"
	"repro/internal/transport/inproc"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Backend{
		Name: "inproc",
		New: func(t *testing.T, seed int64, opts transport.Options, _ ids.Set) conformance.Harness {
			n := inproc.New(seed, opts)
			return conformance.Harness{Net: n, Settle: time.Sleep}
		},
	})
}

// TestDuplicationCounter checks the new DupProb knob feeds the stats the
// fault-parity satellite promised.
func TestDuplicationCounter(t *testing.T) {
	opts := transport.Options{Capacity: 64, DupProb: 1, TickEvery: time.Millisecond}
	n := inproc.New(1, opts)
	defer n.Close()
	if err := n.AddNode(1, nopHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode(2, nopHandler{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		n.Send(1, 2, i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n.Duplicated() == 10 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("duplicated %d, want 10", n.Duplicated())
}

// TestInspectSerializesWithHandler: Inspect runs its closure on the
// node's own goroutine, and reports false for a node that does not
// exist.
func TestInspectSerializesWithHandler(t *testing.T) {
	n := inproc.New(1, transport.Options{Capacity: 64, TickEvery: 500 * time.Microsecond})
	defer n.Close()
	h := &tickHandler{}
	if err := n.AddNode(1, h); err != nil {
		t.Fatal(err)
	}
	seen := -1
	if !n.Inspect(1, func() { seen = h.ticks }) {
		t.Fatal("Inspect failed")
	}
	if seen < 0 {
		t.Fatal("Inspect closure did not run")
	}
	if n.Inspect(99, func() {}) {
		t.Fatal("Inspect of unknown node succeeded")
	}
}

// tickHandler counts ticks; the count is read only through Inspect.
type tickHandler struct{ ticks int }

func (h *tickHandler) Receive(ids.ID, any) {}
func (h *tickHandler) Tick()               { h.ticks++ }

type nopHandler struct{}

func (nopHandler) Receive(ids.ID, any) {}
func (nopHandler) Tick()               {}
