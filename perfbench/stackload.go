package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/datalink"
	"repro/internal/shard"
	"repro/internal/transport/tcp"
	"repro/internal/transport/wire"
)

const (
	stackOutstanding = 64 // register ops kept in flight by the generator
	opDeadline       = 5 * time.Second
	warmup           = 500 * time.Millisecond // per cluster, before its window
	drainDeadline    = 10 * time.Second
	// segments is the number of fresh clusters a run sets up and loads
	// one after another, splitting the measured seconds among them. How
	// a cluster forms (which node ends up coordinating each shard's
	// view) moves its throughput by up to a fifth, so a run averages
	// several formations instead of sampling one; the set-ups also give
	// setup_s several samples.
	segments = 10
)

// runStack runs stack-pipelined (fsync snapshot) or stack-durable
// (fsync always). An untraced run loads segments fresh clusters for
// seconds/segments each. A traced run does that twice, untraced and
// then traced, and reports the per-layer metrics of the traced pass.
func runStack(ctx context.Context, cfg config, durable bool) (*result, error) {
	res := &result{values: map[string]float64{}}
	fsync := "snapshot"
	if durable {
		fsync = "always"
	}
	res.printf("cluster: %d in-process nodes x %d shards on loopback TCP, batch %d, window %d, disk storage fsync %s; %d ops outstanding, 50%% writes / 50%% sync-reads over 8 keys; %d fresh clusters x %.1f s",
		stackNodes, stackShards, stackBatch, stackWindow, fsync, stackOutstanding, segments, (cfg.seconds / segments).Seconds())
	rng := rand.New(rand.NewSource(cfg.seed))
	run := func(pass int, traced bool) (*stackTotals, error) {
		t := &stackTotals{cpu: map[string]int64{}, lt: &layerTimes{}}
		for i := range segments {
			dir := filepath.Join(cfg.workdir, fmt.Sprintf("stack-%d-%d", pass, i))
			var c *stackCluster
			var epoch time.Time
			var err error
			for try := 0; ; try++ {
				epoch = time.Now()
				c, err = buildStack(ctx, dir, durable, traced, epoch)
				// A port taken between the pick and the listen is
				// the harness's race, not the stack's: pick again.
				if !errors.Is(err, syscall.EADDRINUSE) || try == 2 {
					break
				}
			}
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			t.setups = append(t.setups, time.Since(epoch).Seconds())
			p, err := c.load(ctx, rng, cfg.seconds/segments, res, traced)
			c.close() // stops the node goroutines before their tracks are read
			if err != nil {
				return nil, err
			}
			t.add(p, c, epoch, i)
		}
		return t, nil
	}
	if !cfg.trace {
		t, err := run(0, false)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB(0)
		if err != nil {
			return nil, err
		}
		t.report(res)
		res.set("setup_s", slices.Min(t.setups))
		res.set("peak_rss_mb", rss)
		res.printf("setup_s %.4f s (fastest of %d set-ups: %v)", slices.Min(t.setups), len(t.setups), roundAll(t.setups))
		res.printf("peak_rss_mb %.2f MB (this process)", rss)
		return res, nil
	}
	base, err := run(0, false)
	if err != nil {
		return nil, err
	}
	t, err := run(1, true)
	if err != nil {
		return nil, err
	}
	t.report(res)
	t.layerMetrics(cfg, res)
	res.set("trace.overhead_share", 1-ratio(fastHalfMean(t.perCluster), fastHalfMean(base.perCluster)))
	res.printf("trace.overhead_share: traced %.1f ops/s vs untraced %.1f ops/s", fastHalfMean(t.perCluster), fastHalfMean(base.perCluster))
	return res, nil
}

func roundAll(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}

// liveOp is one op the generator is waiting for.
type liveOp struct {
	key   string
	write bool
	seq   uint64 // write: the seq written
	value string // write: the value written
	low   uint64 // sync-read: acked seq when it began
	node  int    // final check: the node read, 0 otherwise
	start time.Time
}

// stackPass is what one cluster's load measured.
type stackPass struct {
	winStart, winEnd time.Time
	completed        int // ops completed inside the window
	writes, syncs    samples
	inboxWait        samples // us, traced only
	before, after    stackCounters
	pending          []float64
	inflight         []float64
	profile          bytes.Buffer
	opTrack          *track
}

// load drives the closed-loop generator on one cluster: one goroutine
// keeps stackOutstanding ops in flight, each routed shard s → node
// (s mod 3)+1 as pkg/client routes it, for a warm-up and then the
// measured window; it then drains and checks every node's final
// register values.
func (c *stackCluster) load(ctx context.Context, rng *rand.Rand, window time.Duration, res *result, traced bool) (*stackPass, error) {
	o := newOracle()
	var keys []string
	for _, per := range shard.NamesPerShard(stackShards, 4) {
		for _, k := range per {
			keys = append(keys, k)
			o.own(k, "g")
		}
	}
	g := &stackGen{c: c, o: o, res: res, rng: rng, keys: keys, live: map[uint64]*liveOp{}, traced: traced}
	p := &g.pass
	if traced {
		p.opTrack = newTrack("load", c.nodes[0].tr.epoch)
	}

	start := time.Now()
	p.winStart = start.Add(warmup)
	p.winEnd = p.winStart.Add(window)
	for range stackOutstanding {
		g.submit()
	}
	phase := time.NewTimer(warmup)
	defer phase.Stop()
	expire := time.NewTicker(100 * time.Millisecond)
	defer expire.Stop()
	var stopSampler func()
	inWindow, submitting := false, true
	for submitting || len(g.live) > 0 {
		select {
		case <-ctx.Done():
			if stopSampler != nil {
				pprof.StopCPUProfile()
				stopSampler()
			}
			return nil, ctx.Err()
		case done := <-c.done:
			g.complete(done)
			if submitting {
				g.submit()
			}
		case now := <-expire.C:
			g.expire(now)
			for submitting && len(g.live) < stackOutstanding {
				g.submit()
			}
			if !submitting && now.Sub(p.winEnd) > drainDeadline {
				return nil, fmt.Errorf("drain: %d ops still outstanding", len(g.live))
			}
		case <-phase.C:
			if !inWindow {
				inWindow = true
				p.winStart = time.Now()
				p.winEnd = p.winStart.Add(window)
				phase.Reset(window)
				if traced {
					p.before = c.counters()
					stopSampler = g.sample()
					if err := pprof.StartCPUProfile(&p.profile); err != nil {
						stopSampler()
						return nil, err
					}
				}
				continue
			}
			submitting = false
			p.winEnd = time.Now()
			if traced {
				pprof.StopCPUProfile()
				stopSampler()
				stopSampler = nil
				p.after = c.counters()
			}
		}
	}
	if err := g.finalCheck(ctx); err != nil {
		return nil, err
	}
	res.violations = append(res.violations, o.report()...)
	return p, nil
}

type stackGen struct {
	c      *stackCluster
	o      *oracle
	res    *result
	rng    *rand.Rand
	keys   []string
	live   map[uint64]*liveOp
	nextID uint64
	traced bool
	pass   stackPass
}

func (g *stackGen) inWindow(t time.Time) bool {
	return !t.Before(g.pass.winStart) && t.Before(g.pass.winEnd)
}

// submit starts one register op on the node owning the key's shard.
func (g *stackGen) submit() {
	key := g.keys[g.rng.Intn(len(g.keys))]
	op := &liveOp{key: key, write: g.rng.Intn(2) == 0}
	if op.write {
		op.seq, op.value = g.o.beginWrite(key)
	} else {
		op.low = g.o.acked(key)
	}
	g.start(op, g.c.nodes[shard.ShardFor(key, stackShards)%stackNodes])
}

// start submits op on node n through Inspect, the way noded's handlers
// do. A submit smr refuses (queue full) never completes and counts as
// failed at once.
func (g *stackGen) start(op *liveOp, n *stackNode) {
	g.nextID++
	id := g.nextID
	g.res.attempted++
	var accepted bool
	var entered time.Time
	op.start = time.Now()
	ok := n.net.Inspect(n.id, func() {
		entered = time.Now()
		sp := n.begin(spanSubmit)
		if n.tr != nil && sp >= 0 {
			n.tr.spans[sp].op = uint32(id)
		}
		mem, _ := n.mem.For(op.key)
		before := mem.SMR().PendingLen()
		if op.write {
			h, _ := n.mem.Write(op.key, op.value)
			n.out = append(n.out, pendingOp{id: id, h: h})
		} else {
			h, _ := n.mem.SyncRead(op.key)
			n.out = append(n.out, pendingOp{id: id, h: h})
		}
		accepted = mem.SMR().PendingLen() > before
		if !accepted {
			n.out = n.out[:len(n.out)-1]
		}
		n.end(sp)
	})
	if g.traced && ok && g.inWindow(op.start) {
		g.pass.inboxWait = append(g.pass.inboxWait, float64(entered.Sub(op.start))/1e3)
	}
	if !ok || !accepted {
		g.fail(op)
		return
	}
	g.live[id] = op
}

func (g *stackGen) fail(op *liveOp) {
	g.res.failed++
	if op.write {
		g.o.endWrite(op.key, op.seq, false)
	}
}

func (g *stackGen) complete(d completion) {
	op, ok := g.live[d.id]
	if !ok {
		return // already counted as failed at its deadline
	}
	delete(g.live, d.id)
	switch {
	case op.node != 0:
		g.o.checkFinal(op.node, op.key, d.value, d.found)
		return
	case op.write:
		g.o.endWrite(op.key, op.seq, true)
	default:
		g.o.checkSync(op.key, op.low, d.value, d.found)
	}
	p := &g.pass
	if g.inWindow(d.at) {
		p.completed++
	}
	if !g.inWindow(op.start) {
		return
	}
	kind := spanSyncRead
	if op.write {
		p.writes = append(p.writes, ms(d.at.Sub(op.start)))
		kind = spanWrite
	} else {
		p.syncs = append(p.syncs, ms(d.at.Sub(op.start)))
	}
	if p.opTrack != nil {
		p.opTrack.add(kind, uint32(d.id), op.start, d.at)
	}
}

// expire fails every op past its deadline.
func (g *stackGen) expire(now time.Time) {
	for id, op := range g.live {
		if now.Sub(op.start) > opDeadline {
			delete(g.live, id)
			g.fail(op)
			if op.node != 0 {
				g.o.fail("node %d: final sync-read of %s did not complete", op.node, op.key)
			}
		}
	}
}

// finalCheck sync-reads every key on every node once all load ended.
func (g *stackGen) finalCheck(ctx context.Context) error {
	for _, n := range g.c.nodes {
		for _, k := range g.keys {
			g.start(&liveOp{key: k, node: int(n.id)}, n)
		}
	}
	expire := time.NewTicker(100 * time.Millisecond)
	defer expire.Stop()
	for len(g.live) > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case d := <-g.c.done:
			g.complete(d)
		case now := <-expire.C:
			g.expire(now)
		}
	}
	return nil
}

// sample polls the in-flight datalink cycles and the smr queues every
// 20ms until the returned stop is called.
func (g *stackGen) sample() (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			inflight, pending := 0.0, 0.0
			for _, n := range g.c.nodes {
				inflight += float64(n.node.Endpoint.InflightTotal())
				n.net.Inspect(n.id, func() {
					for i := 0; i < n.mem.N(); i++ {
						if m, err := n.mem.Mem(i); err == nil {
							pending += float64(m.SMR().PendingLen())
						}
					}
				})
			}
			g.pass.inflight = append(g.pass.inflight, inflight)
			g.pass.pending = append(g.pass.pending, pending)
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

// stackCounters are the cluster-wide sums of the counters the layers
// export.
type stackCounters struct {
	tcp                  tcp.Stats
	link                 datalink.Stats
	rounds, views        uint64
	appends, appendBytes uint64
}

func (c *stackCluster) counters() stackCounters {
	var s stackCounters
	for _, n := range c.nodes {
		ts := n.net.Stats()
		s.tcp.Sent += ts.Sent
		s.tcp.Dropped += ts.Dropped
		s.tcp.ConnWrites += ts.ConnWrites
		s.tcp.FramesWritten += ts.FramesWritten
		ls := n.node.Endpoint.Stats()
		s.link.CyclesDone += ls.CyclesDone
		s.link.Batches += ls.Batches
		s.link.BatchPayloads += ls.BatchPayloads
		for i := 0; i < n.mem.N(); i++ {
			if m, err := n.mem.Mem(i); err == nil {
				vm := m.VS().Metrics()
				s.rounds += vm.RoundsApplied
				s.views += vm.ViewsInstalled
			}
		}
		s.appends += n.appends.Load()
		s.appendBytes += n.appendBytes.Load()
	}
	return s
}

// stackTotals sums the passes of one run's clusters.
type stackTotals struct {
	setups            []float64
	perCluster        []float64 // each cluster's ops/s
	clusterOps        []samples // each cluster's op latencies, ms
	window            time.Duration
	completed         int
	writes, syncs     samples
	inboxWait         samples
	delta             stackCounters
	pending, inflight []float64
	cpu               map[string]int64
	lt                *layerTimes
	tracks            []*track
	msgs              []wire.Msg
	wireErr           error
}

// add folds in cluster seg's pass; the cluster must be closed.
func (t *stackTotals) add(p *stackPass, c *stackCluster, epoch time.Time, seg int) {
	t.window += p.winEnd.Sub(p.winStart)
	t.completed += p.completed
	t.perCluster = append(t.perCluster, float64(p.completed)/p.winEnd.Sub(p.winStart).Seconds())
	t.clusterOps = append(t.clusterOps, append(append(samples(nil), p.writes...), p.syncs...).sorted())
	t.writes = append(t.writes, p.writes...)
	t.syncs = append(t.syncs, p.syncs...)
	if p.opTrack == nil {
		return
	}
	t.inboxWait = append(t.inboxWait, p.inboxWait...)
	t.delta.addDiff(p.before, p.after)
	t.pending = append(t.pending, p.pending...)
	t.inflight = append(t.inflight, p.inflight...)
	if counts, err := cpuCounts(p.profile.Bytes()); err == nil {
		for g, n := range counts {
			t.cpu[g] += n
		}
	}
	var nodeTracks []*track
	for _, n := range c.nodes {
		n.tr.name = fmt.Sprintf("c%d.%s", seg, n.tr.name)
		nodeTracks = append(nodeTracks, n.tr)
		t.msgs = append(t.msgs, n.captured...)
	}
	p.opTrack.name = fmt.Sprintf("c%d.%s", seg, p.opTrack.name)
	t.lt.add(aggregate(nodeTracks, int64(p.winStart.Sub(epoch)), int64(p.winEnd.Sub(epoch)), spanAppend))
	t.tracks = append(append(t.tracks, nodeTracks...), p.opTrack)
}

// report sets the end-to-end metrics: throughput is the mean of the
// faster half of the run's clusters, the median pools every op and the
// p99 is calmP99.
func (t *stackTotals) report(res *result) {
	all := append(append(samples(nil), t.writes...), t.syncs...).sorted()
	p99, n := calmP99(t.clusterOps)
	res.set("ops_per_s", fastHalfMean(t.perCluster))
	res.set("op_p50_ms", all.quantile(0.5))
	res.set("op_p99_ms", p99)
	res.printf("ops_per_s %.2f 1/s (mean of the faster half of the clusters: %v; %d ops in %.3f s of windows)",
		fastHalfMean(t.perCluster), roundAll(t.perCluster), t.completed, t.window.Seconds())
	res.printf("op_p99_ms %.3f ms (n=%d, the calmer half of the clusters; each cluster's p99: %v)",
		p99, n, roundAll(clusterP99s(t.clusterOps)))
	res.printf("op_p50_ms %.3f ms (n=%d)", all.quantile(0.5), len(all))
	res.lines = append(res.lines, timingLines("write", t.writes)...)
	res.lines = append(res.lines, timingLines("sync_read", t.syncs)...)
	res.printf("read_p50_ms, read_p99_ms: n/a (no local reads in this workload)")
}

// layerMetrics sets the per-layer metrics of a traced run.
func (t *stackTotals) layerMetrics(cfg config, res *result) {
	wall := t.window.Seconds()
	nodeWall := wall * stackNodes
	ops := float64(t.completed)
	lt, d := t.lt, t.delta
	rounds := float64(d.rounds) / stackNodes

	iw := t.inboxWait.sorted()
	res.set("node.inbox_wait_p50_us", iw.quantile(0.5))
	res.set("node.inbox_wait_p99_us", iw.quantile(0.99))
	res.set("node.busy_share", lt.top.Seconds()/nodeWall)
	res.set("core.tick_self_us", ratio(float64(lt.self[spanTick])/1e3, float64(lt.count[spanTick])))
	res.set("vs.app_busy_share", lt.total[spanApp].Seconds()/nodeWall)
	res.set("vs.rounds_per_op", ratio(rounds, ops))
	res.set("vs.view_installs", float64(d.views))
	res.set("smr.cmds_per_round", ratio(ops, rounds))
	res.set("smr.pending_mean", samples(t.pending).mean())
	res.set("datalink.cycles_per_op", ratio(float64(d.link.CyclesDone), ops))
	res.set("datalink.payloads_per_batch", ratio(float64(d.link.BatchPayloads), float64(d.link.Batches)))
	res.set("datalink.inflight_mean", samples(t.inflight).mean())
	res.set("tcp.msgs_per_op", ratio(float64(d.tcp.Sent), ops))
	res.set("tcp.frames_per_write", ratio(float64(d.tcp.FramesWritten), float64(d.tcp.ConnWrites)))
	res.set("tcp.dropped_share", ratio(float64(d.tcp.Dropped), float64(d.tcp.Sent)))
	res.set("storage.appends_per_op", ratio(float64(d.appends), ops))
	res.set("storage.bytes_per_op", ratio(float64(d.appendBytes), ops))
	ap := samples(lt.durs[spanAppend]).sorted()
	res.set("storage.append_p50_us", ap.quantile(0.5)*1e3)
	res.set("storage.append_p99_us", ap.quantile(0.99)*1e3)
	res.set("storage.busy_share", (lt.total[spanAppend]+lt.total[spanSnapshot]).Seconds()/nodeWall)

	enc, dec, size, err := wireCost(t.msgs)
	if err != nil {
		res.violations = append(res.violations, fmt.Sprintf("wire: re-encoding captured messages: %v", err))
	}
	res.set("wire.encode_ns_per_msg", enc)
	res.set("wire.decode_ns_per_msg", dec)
	res.set("wire.bytes_per_op", ratio(size*float64(d.tcp.Sent), ops))

	setCPUShares(res, t.cpu)
	res.printf("http: n/a (in-process cluster, no HTTP)")
	res.printf("sim cells: n/a (live workload)")
	res.printf("layer self time in %.3f s of windows (%d ops):", wall, t.completed)
	res.lines = append(res.lines, lt.selfTable(t.completed)...)
	res.printf("wire: %d captured messages re-encoded, %.1f B/msg", len(t.msgs), size)
	writeTrace(cfg, res, t.tracks)
}

// addDiff adds the counters' growth from before to after.
func (s *stackCounters) addDiff(before, after stackCounters) {
	s.tcp.Sent += after.tcp.Sent - before.tcp.Sent
	s.tcp.Dropped += after.tcp.Dropped - before.tcp.Dropped
	s.tcp.ConnWrites += after.tcp.ConnWrites - before.tcp.ConnWrites
	s.tcp.FramesWritten += after.tcp.FramesWritten - before.tcp.FramesWritten
	s.link.CyclesDone += after.link.CyclesDone - before.link.CyclesDone
	s.link.Batches += after.link.Batches - before.link.Batches
	s.link.BatchPayloads += after.link.BatchPayloads - before.link.BatchPayloads
	s.rounds += after.rounds - before.rounds
	s.views += after.views - before.views
	s.appends += after.appends - before.appends
	s.appendBytes += after.appendBytes - before.appendBytes
}

// wireCost re-encodes the captured messages through one wire.Writer
// and decodes them back through a wire.Reader, returning the mean ns
// per message each way and the mean encoded size in bytes.
func wireCost(msgs []wire.Msg) (enc, dec, size float64, err error) {
	if len(msgs) == 0 {
		return 0, 0, 0, nil
	}
	var buf bytes.Buffer
	t0 := time.Now()
	w, err := wire.NewWriter(&buf)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, m := range msgs {
		if err := w.Append(m); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, 0, 0, err
	}
	encD := time.Since(t0)
	size = float64(buf.Len()) / float64(len(msgs))
	t0 = time.Now()
	r, err := wire.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return 0, 0, 0, err
	}
	for range msgs {
		if _, err := r.ReadMsg(); err != nil {
			return 0, 0, 0, err
		}
	}
	decD := time.Since(t0)
	n := float64(len(msgs))
	return float64(encD.Nanoseconds()) / n, float64(decD.Nanoseconds()) / n, size, nil
}

// setCPUShares sets the sim.cpu_share metrics from per-package CPU
// profile sample counts.
func setCPUShares(res *result, counts map[string]int64) {
	var total int64
	var groups []string
	for g, n := range counts {
		total += n
		groups = append(groups, g)
	}
	share := func(g string) float64 { return ratio(float64(counts[g]), float64(total)) }
	res.set("sim.cpu_share.fd", share("fd"))
	res.set("sim.cpu_share.ids", share("ids"))
	res.set("sim.cpu_share.sched", share("sim")+share("netsim"))
	res.set("sim.cpu_share.recsa", share("recsa"))
	res.set("sim.cpu_share.gc", share("gc"))
	res.printf("cpu profile of this process: %d samples by package:", total)
	sort.Slice(groups, func(i, j int) bool { return counts[groups[i]] > counts[groups[j]] })
	for _, g := range groups {
		res.printf("  %-12s %.4f", g, share(g))
	}
}

// writeTrace writes the spans of a traced run into the work directory.
func writeTrace(cfg config, res *result, tracks []*track) {
	path := filepath.Join(cfg.workdir, "spans-"+cfg.workload+".csv")
	if err := writeSpans(path, tracks); err != nil {
		res.printf("writing spans failed: %v", err)
		return
	}
	res.printf("spans written to %s", path)
}
