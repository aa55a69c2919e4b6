// Package core composes the paper's reconfiguration scheme (Figure 1):
// the Reconfiguration Stability Assurance layer (recSA, Algorithm 3.1), the
// Reconfiguration Management layer (recMA, Algorithm 3.2) and the Joining
// Mechanism (Algorithm 3.3), stacked over the (N,Θ)-failure detector and
// the self-stabilizing token data link, all driven by the simulated
// asynchronous network. To an application the composition appears as a
// single black-box module exposing getConfig()/noReco()/estab() plus the
// joining callbacks — exactly the interface surface of Figure 1.
package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/datalink"
	"repro/internal/fd"
	"repro/internal/ids"
	"repro/internal/join"
	"repro/internal/netsim"
	"repro/internal/quorum"
	"repro/internal/recma"
	"repro/internal/recsa"
)

// Transport abstracts the medium a node is attached to: the deterministic
// simulator (netsim.Network) for tests and benchmarks, or the live
// backends of internal/transport (inproc, tcp) for the examples and noded.
type Transport interface {
	// Send transmits a payload between nodes, subject to the medium's
	// loss/reorder/duplication behavior.
	Send(from, to ids.ID, payload any)
	// AddNode registers a handler and starts its periodic timer.
	AddNode(id ids.ID, h netsim.Handler) error
	// Rand returns a random source safe for use from the node's own
	// execution context.
	Rand() *rand.Rand
}

// App is an application riding on a node: it may piggyback a payload on
// every outgoing envelope and receives peers' payloads. Applications read
// configuration state through the node's Services methods.
type App interface {
	// Tick runs once per node timer tick, after the reconfiguration
	// layers have stepped.
	Tick(n *Node)
	// HandleApp processes a peer's application payload.
	HandleApp(from ids.ID, payload any, n *Node)
	// Outgoing returns the application payload for the next envelope to
	// the given peer (nil for none).
	Outgoing(to ids.ID, n *Node) any
}

// Envelope is the single message type a node broadcasts; it aggregates the
// per-layer state the paper's algorithms each send on their own. Bundling
// them preserves semantics (each layer still receives the latest state of
// its counterpart) while keeping one token exchange per peer pair.
//
// Sharding: the reconfiguration layers (RecSA/RecMA/Join) are singleton —
// one quorum system governs every shard — while the service layer above
// them is instantiated per shard. Shard 0's application payload travels in
// the legacy App field, so single-shard envelopes are indistinguishable
// from the pre-sharding format; payloads of shards ≥ 1 ride in ShardApps,
// each tagged with its shard identifier.
type Envelope struct {
	RecSA     *recsa.Message
	RecMA     *recma.Message
	JoinReq   bool
	JoinResp  *join.Response
	App       any // shard 0's application payload
	ShardApps []ShardApp
}

// ShardApp is one extra shard's application payload, tagged with the
// shard it belongs to.
type ShardApp struct {
	Shard int
	App   any
}

// Params configures a node.
type Params struct {
	Self     ids.ID
	N        int          // system bound N (failure detector sizing)
	Initial  recsa.Config // starting config value (set / ⊥ / ])
	EvalConf recma.EvalConf
	JoinApp  join.App
	App      App
	// Apps, when non-empty, replaces the single App with one service
	// stack per shard (index = shard identifier). The reconfiguration
	// layers stay singleton; only the application layer is sharded.
	Apps  []App
	Link  datalink.Options
	FD    fd.Options
	RecSA recsa.Options
	// Quorum overrides the majority quorum system used by the
	// management layer (nil keeps majorities).
	Quorum quorum.System
}

// Node is one processor running the full reconfiguration stack.
type Node struct {
	self ids.ID
	net  Transport

	Endpoint *datalink.Endpoint
	Detector *fd.Detector
	SA       *recsa.RecSA
	MA       *recma.RecMA
	Joiner   *join.Joiner

	// apps are the per-shard service stacks riding on the singleton
	// reconfiguration layers (index = shard identifier). An unsharded
	// node has exactly one entry; a node without an application has none.
	apps  []App
	maMsg recma.Message
	// joinTargets are the processors the joiner polls this tick.
	joinTargets ids.Set
	// pendingJoinResp holds one response per requesting joiner, carried
	// by the next envelope toward it.
	pendingJoinResp map[ids.ID]*join.Response
	// outbox snapshots the per-peer envelope at the end of every tick.
	// The data link pulls from the snapshot (never from live state), so
	// echoes always reflect the state of the last atomic step — the
	// paper's interleaving model, on which the unison proofs depend.
	outbox map[ids.ID]Envelope
	// batching mirrors Params.Link.MaxBatch > 1 or Link.Window > 1:
	// every tick's envelope is additionally pushed into the data link's
	// per-peer outbound queue, so one token cycle carries the envelopes
	// of several atomic steps instead of only the latest snapshot
	// (DESIGN.md §11), and a pipelined link has queued material to
	// restart cycles on ack (§14). At MaxBatch 1 and Window 1 the
	// legacy pull-only path is preserved bit-for-bit.
	batching bool

	// ticks is atomic: /metrics reads it live while the node runs.
	ticks atomic.Uint64
}

// NewNode constructs a node attached to the transport. The caller must
// still Connect it to its peers.
func NewNode(net Transport, p Params) (*Node, error) {
	if !p.Self.Valid() {
		return nil, fmt.Errorf("core: invalid node id %v", p.Self)
	}
	if p.N <= 0 {
		p.N = 64
	}
	if p.FD.N == 0 {
		p.FD = fd.DefaultOptions(p.N)
	}
	if p.Initial.Kind == 0 {
		p.Initial = recsa.NotParticipant()
	}
	apps := p.Apps
	if len(apps) == 0 && p.App != nil {
		apps = []App{p.App}
	}
	for i, a := range apps {
		if a == nil {
			return nil, fmt.Errorf("core: nil app for shard %d", i)
		}
	}
	n := &Node{
		self:            p.Self,
		net:             net,
		apps:            apps,
		pendingJoinResp: make(map[ids.ID]*join.Response),
		outbox:          make(map[ids.ID]Envelope),
	}
	n.Detector = fd.New(p.Self, p.FD)
	n.SA = recsa.New(p.Self, n.Detector, p.Initial, p.RecSA)
	n.MA = recma.New(p.Self, n.SA, n.Detector, p.EvalConf)
	if p.Quorum != nil {
		n.MA.SetQuorumSystem(p.Quorum)
	}
	n.Joiner = join.New(p.Self, n.SA, p.JoinApp)
	n.Endpoint = datalink.NewEndpoint(datalink.Config{
		Self: p.Self,
		Opts: p.Link,
		Rand: net.Rand(),
		Send: func(to ids.ID, pkt datalink.Packet) {
			net.Send(p.Self, to, pkt)
		},
		Deliver:   n.deliver,
		Heartbeat: n.Detector.Heartbeat,
		Source: func(to ids.ID) any {
			env, ok := n.outbox[to]
			if !ok {
				return nil
			}
			return env
		},
	})
	n.batching = n.Endpoint.MaxBatch() > 1 || n.Endpoint.Window() > 1
	if err := net.AddNode(p.Self, n); err != nil {
		return nil, err
	}
	return n, nil
}

// Self returns the node's identifier.
func (n *Node) Self() ids.ID { return n.self }

// Ticks returns the number of timer ticks executed. Safe to call
// concurrently with the node's own execution.
func (n *Node) Ticks() uint64 { return n.ticks.Load() }

// Connect establishes the data link toward a peer.
func (n *Node) Connect(peer ids.ID) { n.Endpoint.Connect(peer) }

// ConnectAll establishes links toward every member of peers.
func (n *Node) ConnectAll(peers ids.Set) {
	peers.Each(func(p ids.ID) { n.Connect(p) })
}

// --- Services surface used by applications ---

// Quorum returns the current configuration set if one is agreed.
func (n *Node) Quorum() (ids.Set, bool) { return n.SA.Quorum() }

// NoReco reports that no reconfiguration is taking place.
func (n *Node) NoReco() bool { return n.SA.NoReco() }

// IsParticipant reports whether the node broadcasts protocol state.
func (n *Node) IsParticipant() bool { return n.SA.IsParticipant() }

// Trusted returns the failure detector's trusted set.
func (n *Node) Trusted() ids.Set { return n.Detector.Trusted().Add(n.self) }

// Participants returns the current participant set.
func (n *Node) Participants() ids.Set { return n.SA.Participants() }

// Estab proposes replacing the configuration with set.
func (n *Node) Estab(set ids.Set) bool { return n.SA.Estab(set) }

// NumShards returns the number of service stacks hosted on this node.
func (n *Node) NumShards() int { return len(n.apps) }

// --- netsim.Handler ---

// Tick is the node's periodic timer body: step every layer, snapshot the
// outgoing envelopes, then drive the data link.
func (n *Node) Tick() {
	n.ticks.Add(1)
	n.SA.Step()
	n.maMsg = n.MA.Step(n.SA.PeerPart)
	n.joinTargets = n.Joiner.Step(n.Trusted())
	for _, app := range n.apps {
		app.Tick(n)
	}
	n.Endpoint.Peers().Each(func(to ids.ID) {
		env := n.buildEnvelope(to)
		n.outbox[to] = env
		if n.batching {
			n.Endpoint.Enqueue(to, env)
		}
	})
	n.Endpoint.Tick()
}

// Receive handles a raw network packet.
func (n *Node) Receive(from ids.ID, payload any) {
	pkt, ok := payload.(datalink.Packet)
	if !ok {
		return // unknown garbage (possible after fault injection)
	}
	n.Endpoint.HandlePacket(from, pkt)
}

// buildEnvelope assembles the outgoing message for one peer from the state
// of the step that just completed.
func (n *Node) buildEnvelope(to ids.ID) Envelope {
	env := Envelope{}
	if m, ok := n.SA.OutgoingMessage(to); ok {
		env.RecSA = &m
		mm := n.maMsg
		env.RecMA = &mm
	}
	if n.joinTargets.Contains(to) {
		env.JoinReq = true
	}
	if resp, ok := n.pendingJoinResp[to]; ok {
		env.JoinResp = resp
		delete(n.pendingJoinResp, to)
	}
	for shard, app := range n.apps {
		payload := app.Outgoing(to, n)
		if payload == nil {
			continue
		}
		if shard == 0 {
			env.App = payload
		} else {
			env.ShardApps = append(env.ShardApps, ShardApp{Shard: shard, App: payload})
		}
	}
	return env
}

// deliver processes a cleanly received envelope from the data link.
func (n *Node) deliver(from ids.ID, msg any) {
	env, ok := msg.(Envelope)
	if !ok {
		return
	}
	if env.RecSA != nil {
		n.SA.HandleMessage(from, *env.RecSA)
	}
	if env.RecMA != nil {
		n.MA.HandleMessage(from, *env.RecMA)
	}
	if env.JoinReq {
		resp, ok := n.Joiner.HandleRequest(from)
		if !ok {
			// Retract any previously granted pass: joiners poll
			// continuously, so an explicit denial keeps their
			// majority count honest during reconfigurations.
			resp = join.Response{}
		}
		r := resp
		n.pendingJoinResp[from] = &r
	}
	if env.JoinResp != nil {
		n.Joiner.HandleResponse(from, *env.JoinResp)
	}
	if env.App != nil && len(n.apps) > 0 {
		n.apps[0].HandleApp(from, env.App, n)
	}
	for _, sa := range env.ShardApps {
		// Out-of-range shard tags (peer misconfiguration, transient
		// corruption) are dropped like any other garbage.
		if sa.App == nil || sa.Shard < 0 || sa.Shard >= len(n.apps) {
			continue
		}
		n.apps[sa.Shard].HandleApp(from, sa.App, n)
	}
}
