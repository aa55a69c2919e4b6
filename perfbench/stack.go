package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datalink"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/recsa"
	"repro/internal/regmem"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/transport/wire"
)

// The in-process cluster: 3 nodes × 2 shards, each node on its own
// tcp.Net over loopback, assembled the way cmd/noded's NewDaemon
// assembles a daemon (no HTTP), with batch 16, window 4 and disk
// storage. Node and transport seeds are fixed; only the generated op
// sequence follows the workload seed.
const (
	stackNodes  = 3
	stackShards = 2
	stackBatch  = 16
	stackWindow = 4
	stackMaxN   = 16 // noded -maxn default
	stackSnap   = 1024
	stackSeed   = 1 // noded -seed default
)

// completion reports an op's handle completing, observed on the node
// goroutine right after the core.App call that completed it.
type completion struct {
	id    uint64
	at    time.Time
	value string
	found bool
}

type pendingOp struct {
	id uint64
	h  *regmem.Handle
}

type stackNode struct {
	id     ids.ID
	net    *tcp.Net
	node   *core.Node
	mem    *shard.Map
	stores []storage.Backend
	done   chan<- completion
	out    []pendingOp // node goroutine only

	// Traced runs only.
	tr          *track
	appends     atomic.Uint64
	appendBytes atomic.Uint64
	sends       int // node goroutine only
	captured    []wire.Msg
}

// captureLimit bounds the sent messages one traced node keeps for the
// wire codec measurement.
const captureLimit = 2048

type stackCluster struct {
	dir   string
	nodes []*stackNode
	done  chan completion
}

// buildStack starts a fresh cluster under dir and returns once every
// shard on every node serves.
func buildStack(ctx context.Context, dir string, durable, traced bool, epoch time.Time) (*stackCluster, error) {
	all := ids.Range(1, stackNodes)
	ports, err := freePorts(stackNodes)
	if err != nil {
		return nil, err
	}
	addrs := map[ids.ID]string{}
	for i, id := range all.Members() {
		addrs[id] = fmt.Sprintf("127.0.0.1:%d", ports[i])
	}
	fsync := storage.FsyncSnapshot
	if durable {
		fsync = storage.FsyncAlways
	}
	// Sized to every op that can be outstanding at once (load plus the
	// final check), so a node goroutine never blocks on it.
	c := &stackCluster{dir: dir, done: make(chan completion, 1024)}
	for _, id := range all.Members() {
		n := &stackNode{id: id, done: c.done}
		c.nodes = append(c.nodes, n)
		n.net = tcp.New(tcp.Config{
			Addrs: addrs,
			Seed:  stackSeed*1_000_003 + int64(id),
			Opts: transport.Options{
				Capacity:   256,
				TickEvery:  2 * time.Millisecond,
				TickJitter: time.Millisecond,
			},
		})
		if traced {
			n.tr = newTrack(fmt.Sprintf("node%d", id), epoch)
		}
		if err := n.start(filepath.Join(dir, fmt.Sprintf("node-%d", id)), fsync, all); err != nil {
			c.close()
			return nil, fmt.Errorf("node %v: %w", id, err)
		}
	}
	for {
		serving := true
		for _, n := range c.nodes {
			serving = serving && n.serving()
		}
		if serving {
			return c, nil
		}
		select {
		case <-ctx.Done():
			c.close()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(epoch) > 5*time.Minute {
			c.close()
			return nil, fmt.Errorf("cluster not serving after %v", time.Since(epoch))
		}
	}
}

// start wires one node exactly as NewDaemon does, plus the benchmark's
// wrappers: every core.App is wrapped to notice completed handles; a
// traced node also wraps its transport and storage backends.
func (n *stackNode) start(dir string, fsync storage.Fsync, all ids.Set) error {
	mem := shard.New(n.id, stackShards, func(cur ids.Set, trusted ids.Set) bool {
		return cur.Diff(trusted).Size() > 0
	})
	mem.SetMaxBatch(stackBatch)
	mem.SetAdaptiveBatch(false)
	n.mem = mem
	err := mem.AttachStorage(func(sh int) (storage.Backend, error) {
		be, err := storage.OpenDisk(filepath.Join(dir, fmt.Sprintf("shard-%d", sh)), storage.DiskOptions{Fsync: fsync})
		if err != nil {
			return nil, err
		}
		n.stores = append(n.stores, be)
		if n.tr != nil {
			return &tracedStore{Backend: be, n: n}, nil
		}
		return be, nil
	}, stackSnap)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	apps := mem.Apps()
	for i, a := range apps {
		apps[i] = &appWrap{inner: a, n: n}
	}
	var tr core.Transport = n.net
	if n.tr != nil {
		tr = tracedNet{Net: n.net, n: n}
	}
	node, err := core.NewNode(tr, core.Params{
		Self:     n.id,
		N:        stackMaxN,
		Initial:  recsa.ConfigOf(all),
		EvalConf: func(ids.Set, ids.Set) bool { return false },
		Apps:     apps,
		Link:     datalink.Options{MaxBatch: stackBatch, Window: stackWindow},
	})
	if err != nil {
		return err
	}
	n.node = node
	others := all.Remove(n.id)
	if !n.net.Inspect(n.id, func() {
		node.ConnectAll(others)
		node.Detector.Bootstrap(others)
	}) {
		return fmt.Errorf("wiring failed")
	}
	return nil
}

// serving mirrors noded's status: participant with an agreed
// configuration and a view on every shard.
func (n *stackNode) serving() bool {
	ok := false
	n.net.Inspect(n.id, func() {
		_, has := n.node.Quorum()
		ok = n.node.IsParticipant() && has
		for i := 0; ok && i < n.mem.N(); i++ {
			m, err := n.mem.Mem(i)
			_, view := m.VS().CurrentView()
			ok = err == nil && view
		}
	})
	return ok
}

// notice reports every outstanding handle that has completed.
func (n *stackNode) notice() {
	if len(n.out) == 0 {
		return
	}
	kept := n.out[:0]
	var now time.Time
	for _, p := range n.out {
		if !p.h.Done() {
			kept = append(kept, p)
			continue
		}
		if now.IsZero() {
			now = time.Now()
		}
		v, found := p.h.Value()
		// Never blocks while the generator reads (the buffer exceeds
		// every op it can have in flight); once it has stopped reading,
		// a late completion of an expired op is dropped.
		select {
		case n.done <- completion{id: p.id, at: now, value: v, found: found}:
		default:
		}
	}
	clear(n.out[len(kept):])
	n.out = kept
}

func (c *stackCluster) close() {
	for _, n := range c.nodes {
		n.net.Close()
		for _, s := range n.stores {
			s.Close()
		}
	}
	os.RemoveAll(c.dir)
}

// appWrap is the core.App wrapper: it notices completed handles after
// every call and, on a traced node, records a vs.app span.
type appWrap struct {
	inner core.App
	n     *stackNode
}

func (a *appWrap) Tick(cn *core.Node) {
	sp := a.n.begin(spanApp)
	a.inner.Tick(cn)
	a.n.end(sp)
	a.n.notice()
}

func (a *appWrap) HandleApp(from ids.ID, payload any, cn *core.Node) {
	sp := a.n.begin(spanApp)
	a.inner.HandleApp(from, payload, cn)
	a.n.end(sp)
	a.n.notice()
}

func (a *appWrap) Outgoing(to ids.ID, cn *core.Node) any {
	sp := a.n.begin(spanApp)
	out := a.inner.Outgoing(to, cn)
	a.n.end(sp)
	return out
}

func (n *stackNode) begin(k spanKind) int32 {
	if n.tr == nil {
		return -1
	}
	return n.tr.begin(k, 0)
}

func (n *stackNode) end(sp int32) {
	if n.tr != nil {
		n.tr.end(sp)
	}
}

// tracedNet is a traced node's transport: its handler is wrapped to
// record ticks and receives, and every Send is timed and sampled for
// the wire codec measurement.
type tracedNet struct {
	*tcp.Net
	n *stackNode
}

func (t tracedNet) AddNode(id ids.ID, h netsim.Handler) error {
	return t.Net.AddNode(id, tracedHandler{inner: h, n: t.n})
}

func (t tracedNet) Send(from, to ids.ID, payload any) {
	sp := t.n.tr.begin(spanSend, 0)
	t.Net.Send(from, to, payload)
	t.n.tr.end(sp)
	t.n.sends++
	if t.n.sends%8 == 0 && len(t.n.captured) < captureLimit {
		t.n.captured = append(t.n.captured, wire.NewMsg(from, to, payload))
	}
}

type tracedHandler struct {
	inner netsim.Handler
	n     *stackNode
}

func (h tracedHandler) Tick() {
	sp := h.n.tr.begin(spanTick, 0)
	h.inner.Tick()
	h.n.tr.end(sp)
}

func (h tracedHandler) Receive(from ids.ID, payload any) {
	sp := h.n.tr.begin(spanReceive, 0)
	h.inner.Receive(from, payload)
	h.n.tr.end(sp)
}

// tracedStore is the storage.Backend wrapper of a traced node.
type tracedStore struct {
	storage.Backend
	n *stackNode
}

func (s *tracedStore) Append(data []byte) error {
	sp := s.n.tr.begin(spanAppend, 0)
	err := s.Backend.Append(data)
	s.n.tr.end(sp)
	s.n.appends.Add(1)
	s.n.appendBytes.Add(uint64(len(data)))
	return err
}

func (s *tracedStore) SaveSnapshot(data []byte) error {
	sp := s.n.tr.begin(spanSnapshot, 0)
	err := s.Backend.SaveSnapshot(data)
	s.n.tr.end(sp)
	return err
}
