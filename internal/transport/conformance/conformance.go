// Package conformance is the shared behavioral test suite every
// transport backend must pass: registration and tick semantics, lossless
// and fully-lossy delivery, duplication injection, crash stop-failure,
// Inspect serialization, Close idempotence, batched datalink payloads
// crossing intact (for tcp: through the wire codec's batch field), a full
// reconfiguration-stack cluster converging on the backend, and a sharded
// register cluster — two service stacks multiplexed over one transport
// with shard-tagged envelopes — completing writes on every shard
// concurrently.
//
// Backends invoke Run from their own test files, so `go test ./...`
// exercises the suite against simnet, inproc and tcp in one sweep (the
// CI -race run covers the live backends' concurrency).
package conformance

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datalink"
	"repro/internal/ids"
	"repro/internal/recsa"
	"repro/internal/regmem"
	"repro/internal/shard"
	"repro/internal/transport"
)

// Backend describes one transport implementation under test.
type Backend struct {
	// Name labels the subtests.
	Name string
	// New builds a fresh transport able to host any of the given node
	// identifiers. The suite closes it.
	New func(t *testing.T, seed int64, opts transport.Options, universe ids.Set) Harness
}

// Harness couples a transport with the way model time advances on it:
// virtual (the test pumps a scheduler) or real (the test sleeps).
type Harness struct {
	Net transport.Transport
	// Settle lets the medium make roughly d of model-time progress.
	Settle func(d time.Duration)
}

// handler counts events; its fields are only touched from the node's
// execution context (writes by the backend, reads via Inspect).
type handler struct {
	ticks    int
	received int
	lastFrom ids.ID
	lastPay  any
}

func (h *handler) Receive(from ids.ID, payload any) {
	h.received++
	h.lastFrom = from
	h.lastPay = payload
}

func (h *handler) Tick() { h.ticks++ }

// packetRecorder keeps every received datalink packet in arrival order;
// touched only from the node's execution context, like handler.
type packetRecorder struct {
	pkts []datalink.Packet
}

func (r *packetRecorder) Receive(from ids.ID, payload any) {
	if pkt, ok := payload.(datalink.Packet); ok {
		r.pkts = append(r.pkts, pkt)
	}
}

func (r *packetRecorder) Tick() {}

// quietOpts is a fault-free configuration for exact-delivery assertions.
func quietOpts() transport.Options {
	return transport.Options{
		Capacity:  64,
		MinDelay:  0,
		MaxDelay:  2 * time.Millisecond,
		TickEvery: time.Millisecond,
	}
}

// await polls cond (outside any node context) every settle step until it
// holds or the model-time budget runs out.
func await(h Harness, budget time.Duration, cond func() bool) bool {
	step := 20 * time.Millisecond
	for spent := time.Duration(0); spent < budget; spent += step {
		if cond() {
			return true
		}
		h.Settle(step)
	}
	return cond()
}

// inspected reads a value from inside the node's execution context.
func inspected[T any](t *testing.T, h Harness, id ids.ID, read func() T) T {
	t.Helper()
	var out T
	if !h.Net.Inspect(id, func() { out = read() }) {
		t.Fatalf("Inspect(%v) failed", id)
	}
	return out
}

// Run executes the conformance suite against the backend.
func Run(t *testing.T, b Backend) {
	universe := ids.Range(1, 8)

	t.Run("TicksAndRegistration", func(t *testing.T) {
		h := b.New(t, 1, quietOpts(), universe)
		defer h.Net.Close()
		ha := &handler{}
		if err := h.Net.AddNode(1, ha); err != nil {
			t.Fatal(err)
		}
		if err := h.Net.AddNode(1, &handler{}); err == nil {
			t.Fatal("duplicate AddNode accepted")
		}
		if !await(h, 5*time.Second, func() bool {
			return inspected(t, h, 1, func() int { return ha.ticks }) >= 5
		}) {
			t.Fatal("node never ticked")
		}
		if !h.Net.Alive().Contains(1) {
			t.Fatal("registered node not alive")
		}
	})

	t.Run("LosslessDelivery", func(t *testing.T) {
		h := b.New(t, 2, quietOpts(), universe)
		defer h.Net.Close()
		src, dst := &handler{}, &handler{}
		if err := h.Net.AddNode(1, src); err != nil {
			t.Fatal(err)
		}
		if err := h.Net.AddNode(2, dst); err != nil {
			t.Fatal(err)
		}
		const k = 20
		for i := 0; i < k; i++ {
			h.Net.Send(1, 2, i)
		}
		if !await(h, 10*time.Second, func() bool {
			return inspected(t, h, 2, func() int { return dst.received }) == k
		}) {
			got := inspected(t, h, 2, func() int { return dst.received })
			t.Fatalf("delivered %d/%d", got, k)
		}
		// No spurious duplication without DupProb.
		h.Settle(100 * time.Millisecond)
		if got := inspected(t, h, 2, func() int { return dst.received }); got != k {
			t.Fatalf("delivered %d after settling, want exactly %d", got, k)
		}
		from := inspected(t, h, 2, func() ids.ID { return dst.lastFrom })
		if from != 1 {
			t.Fatalf("sender identity %v, want p1", from)
		}
	})

	t.Run("TotalLossDeliversNothing", func(t *testing.T) {
		opts := quietOpts()
		opts.LossProb = 1
		h := b.New(t, 3, opts, universe)
		defer h.Net.Close()
		dst := &handler{}
		if err := h.Net.AddNode(1, &handler{}); err != nil {
			t.Fatal(err)
		}
		if err := h.Net.AddNode(2, dst); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			h.Net.Send(1, 2, i)
		}
		h.Settle(200 * time.Millisecond)
		if got := inspected(t, h, 2, func() int { return dst.received }); got != 0 {
			t.Fatalf("full loss delivered %d packets", got)
		}
	})

	t.Run("DuplicationInjection", func(t *testing.T) {
		opts := quietOpts()
		opts.DupProb = 1
		h := b.New(t, 4, opts, universe)
		defer h.Net.Close()
		dst := &handler{}
		if err := h.Net.AddNode(1, &handler{}); err != nil {
			t.Fatal(err)
		}
		if err := h.Net.AddNode(2, dst); err != nil {
			t.Fatal(err)
		}
		h.Net.Send(1, 2, "once")
		if !await(h, 5*time.Second, func() bool {
			return inspected(t, h, 2, func() int { return dst.received }) >= 2
		}) {
			got := inspected(t, h, 2, func() int { return dst.received })
			t.Fatalf("DupProb=1 delivered %d copies, want >= 2", got)
		}
	})

	t.Run("CrashStopsNode", func(t *testing.T) {
		h := b.New(t, 5, quietOpts(), universe)
		defer h.Net.Close()
		victim := &handler{}
		if err := h.Net.AddNode(1, &handler{}); err != nil {
			t.Fatal(err)
		}
		if err := h.Net.AddNode(2, victim); err != nil {
			t.Fatal(err)
		}
		if !await(h, 5*time.Second, func() bool {
			return inspected(t, h, 2, func() int { return victim.ticks }) > 0
		}) {
			t.Fatal("victim never ticked")
		}
		h.Net.Crash(2)
		if h.Net.Alive().Contains(2) {
			t.Fatal("crashed node still alive")
		}
		if h.Net.Inspect(2, func() {}) {
			t.Fatal("Inspect of crashed node succeeded")
		}
		// Unknown/crashed destinations drop silently.
		h.Net.Send(1, 2, "into the void")
		h.Net.Send(1, 99, "into the void")
		h.Settle(50 * time.Millisecond)
	})

	t.Run("CloseIdempotent", func(t *testing.T) {
		h := b.New(t, 6, quietOpts(), universe)
		if err := h.Net.AddNode(1, &handler{}); err != nil {
			t.Fatal(err)
		}
		if err := h.Net.Close(); err != nil {
			t.Fatal(err)
		}
		if err := h.Net.Close(); err != nil {
			t.Fatal(err)
		}
		if err := h.Net.AddNode(3, &handler{}); err == nil {
			t.Fatal("AddNode after Close accepted")
		}
	})

	t.Run("BatchedPayloads", func(t *testing.T) {
		// Batched DATA packets (datalink MaxBatch > 1) must cross the
		// backend as one unit: every batch arrives exactly once with its
		// payloads in order — no loss, duplication or reordering across
		// batch boundaries. For tcp this exercises the wire codec's
		// batch field end to end, envelopes (with shard tags) and raw
		// payloads mixed.
		opts := quietOpts()
		h := b.New(t, 9, opts, universe)
		defer h.Net.Close()
		dst := &packetRecorder{}
		if err := h.Net.AddNode(1, &handler{}); err != nil {
			t.Fatal(err)
		}
		if err := h.Net.AddNode(2, dst); err != nil {
			t.Fatal(err)
		}
		const k = 12
		sent := make(map[uint64]datalink.Packet, k+1)
		for i := 0; i < k; i++ {
			pkt := datalink.Packet{
				Kind: datalink.KindData, Session: uint64(i + 1), Seq: uint8(i),
				Batch: []any{
					fmt.Sprintf("b%d-0", i),
					core.Envelope{
						App:       fmt.Sprintf("b%d-1", i),
						ShardApps: []core.ShardApp{{Shard: 1, App: fmt.Sprintf("b%d-s1", i)}},
					},
					fmt.Sprintf("b%d-2", i),
				},
			}
			sent[pkt.Session] = pkt
			h.Net.Send(1, 2, pkt)
		}
		// A single-payload packet shares the stream unharmed.
		single := datalink.Packet{Kind: datalink.KindData, Session: k + 1, Seq: 0, Payload: "single"}
		sent[single.Session] = single
		h.Net.Send(1, 2, single)

		if !await(h, 10*time.Second, func() bool {
			return inspected(t, h, 2, func() int { return len(dst.pkts) }) == len(sent)
		}) {
			got := inspected(t, h, 2, func() int { return len(dst.pkts) })
			t.Fatalf("delivered %d/%d batched packets", got, len(sent))
		}
		// No late duplicates across batch boundaries.
		h.Settle(100 * time.Millisecond)
		pkts := inspected(t, h, 2, func() []datalink.Packet {
			return append([]datalink.Packet(nil), dst.pkts...)
		})
		if len(pkts) != len(sent) {
			t.Fatalf("delivered %d packets after settling, want exactly %d", len(pkts), len(sent))
		}
		seen := map[uint64]bool{}
		for _, got := range pkts {
			if seen[got.Session] {
				t.Fatalf("batch %d delivered twice", got.Session)
			}
			seen[got.Session] = true
			want, ok := sent[got.Session]
			if !ok {
				t.Fatalf("unknown batch session %d", got.Session)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d mutated in transit:\n in=%#v\nout=%#v", got.Session, want, got)
			}
		}
	})

	t.Run("FullStackConvergence", func(t *testing.T) {
		// A 3-node reconfiguration stack bootstraps to an agreed
		// configuration under mild faults — the subsystem's reason to
		// exist, demonstrated per backend.
		opts := transport.Options{
			Capacity:   32,
			MinDelay:   0,
			MaxDelay:   2 * time.Millisecond,
			LossProb:   0.05,
			DupProb:    0.02,
			TickEvery:  time.Millisecond,
			TickJitter: time.Millisecond,
		}
		h := b.New(t, 7, opts, universe)
		defer h.Net.Close()
		all := ids.Range(1, 3)
		nodes := make(map[ids.ID]*core.Node)
		for i := ids.ID(1); i <= 3; i++ {
			n, err := core.NewNode(h.Net, core.Params{
				Self: i, N: 16, Initial: recsa.ConfigOf(all),
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = n
		}
		for i := ids.ID(1); i <= 3; i++ {
			if !h.Net.Inspect(i, func() {
				nodes[i].ConnectAll(all.Remove(i))
				nodes[i].Detector.Bootstrap(all.Remove(i))
			}) {
				t.Fatalf("wiring node %v failed", i)
			}
		}
		converged := func() bool {
			for i := ids.ID(1); i <= 3; i++ {
				ok := inspected(t, h, i, func() bool {
					q, has := nodes[i].Quorum()
					return has && q.Equal(all) && nodes[i].NoReco()
				})
				if !ok {
					return false
				}
			}
			return true
		}
		if !await(h, 60*time.Second, converged) {
			t.Fatal("full stack never converged on this backend")
		}
	})

	t.Run("ShardedServiceStacks", func(t *testing.T) {
		// Two register shards multiplexed over one transport: each node
		// hosts two vs/smr/regmem stacks on a singleton reconfiguration
		// layer, envelopes carry shard-tagged payloads (for tcp, through
		// the wire codec's shard field), and writes routed to
		// both shards complete concurrently and replicate to every node.
		const n, shards = 3, 2
		opts := transport.Options{
			Capacity:   32,
			MaxDelay:   2 * time.Millisecond,
			TickEvery:  time.Millisecond,
			TickJitter: time.Millisecond,
		}
		h := b.New(t, 8, opts, universe)
		defer h.Net.Close()
		all := ids.Range(1, n)
		maps := make(map[ids.ID]*shard.Map)
		nodes := make(map[ids.ID]*core.Node)
		for i := ids.ID(1); i <= n; i++ {
			m := shard.New(i, shards, nil)
			maps[i] = m
			node, err := core.NewNode(h.Net, core.Params{
				Self: i, N: 16, Initial: recsa.ConfigOf(all),
				EvalConf: func(ids.Set, ids.Set) bool { return false },
				Apps:     m.Apps(),
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = node
		}
		for i := ids.ID(1); i <= n; i++ {
			if !h.Net.Inspect(i, func() {
				nodes[i].ConnectAll(all.Remove(i))
				nodes[i].Detector.Bootstrap(all.Remove(i))
			}) {
				t.Fatalf("wiring node %v failed", i)
			}
		}
		// Every shard of every node installs a view.
		if !await(h, 60*time.Second, func() bool {
			for i := ids.ID(1); i <= n; i++ {
				ok := inspected(t, h, i, func() bool {
					for s := 0; s < shards; s++ {
						mem, err := maps[i].Mem(s)
						if err != nil {
							return false
						}
						if _, has := mem.VS().CurrentView(); !has {
							return false
						}
					}
					return true
				})
				if !ok {
					return false
				}
			}
			return true
		}) {
			t.Fatal("not every shard installed a view on this backend")
		}
		// One register per shard, written concurrently through node 1's
		// router.
		perShard := shard.NamesPerShard(shards, 1)
		names := make([]string, shards)
		for s, group := range perShard {
			names[s] = group[0]
		}
		handles := make([]*regmem.Handle, shards)
		if !h.Net.Inspect(1, func() {
			for s, name := range names {
				hnd, got := maps[1].Write(name, fmt.Sprintf("v%d", s))
				if got != s {
					t.Errorf("write %q routed to shard %d, want %d", name, got, s)
				}
				handles[s] = hnd
			}
		}) {
			t.Fatal("Inspect(1) failed")
		}
		if !await(h, 60*time.Second, func() bool {
			return inspected(t, h, 1, func() bool {
				for _, hnd := range handles {
					if !hnd.Done() {
						return false
					}
				}
				return true
			})
		}) {
			t.Fatal("cross-shard writes never completed")
		}
		// Both registers are readable on every node through the router.
		if !await(h, 60*time.Second, func() bool {
			for i := ids.ID(1); i <= n; i++ {
				ok := inspected(t, h, i, func() bool {
					for s, name := range names {
						if v, _ := maps[i].Read(name); v != fmt.Sprintf("v%d", s) {
							return false
						}
					}
					return true
				})
				if !ok {
					return false
				}
			}
			return true
		}) {
			t.Fatal("cross-shard writes not visible on every node")
		}
	})
}
