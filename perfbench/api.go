package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/pkg/client"
)

// api-durable: 3 noded processes × 2 shards on loopback, each with
// -data-dir and -fsync always, every other flag at its default; two
// pkg/client workers run ⅓ writes, ⅓ sync-reads and ⅓ local reads over
// 8 keys, closed loop.
const (
	apiNodes   = 3
	apiShards  = 2
	apiWorkers = 2
)

type nodedCluster struct {
	dir       string
	endpoints []string
	procs     []*nodedProc
	logs      []*os.File
}

// nodedProc is one running node; exited closes once it has been waited
// for.
type nodedProc struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

// freePorts picks n free loopback ports below the kernel's ephemeral
// range, so no outbound connection of the cluster itself (node links,
// HTTP clients) can take one between the pick and the listen.
func freePorts(n int) ([]int, error) {
	hi := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			if lo, err := strconv.Atoi(f[0]); err == nil && lo > 11000 {
				hi = lo
			}
		}
	}
	seen := map[int]bool{}
	var out []int
	for tries := 0; len(out) < n && tries < 1000; tries++ {
		p := 10000 + rand.Intn(hi-10000)
		if seen[p] {
			continue
		}
		seen[p] = true
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			continue
		}
		ln.Close()
		out = append(out, p)
	}
	if len(out) < n {
		return nil, fmt.Errorf("no %d free loopback ports below %d", n, hi)
	}
	return out, nil
}

// errNodeExited reports a node that exited while the cluster started.
var errNodeExited = errors.New("noded exited during start-up")

// startNoded launches a fresh cluster under dir and returns once every
// node reports every shard serving. A node that exits during start-up
// (a port taken between the pick and the listen) fails it at once.
func startNoded(ctx context.Context, cfg config, dir string) (*nodedCluster, error) {
	ports, err := freePorts(2 * apiNodes)
	if err != nil {
		return nil, err
	}
	var peers []string
	for i := 1; i <= apiNodes; i++ {
		peers = append(peers, fmt.Sprintf("%d=127.0.0.1:%d", i, ports[i-1]))
	}
	c := &nodedCluster{dir: dir}
	for i := 1; i <= apiNodes; i++ {
		httpAddr := fmt.Sprintf("127.0.0.1:%d", ports[apiNodes+i-1])
		c.endpoints = append(c.endpoints, "http://"+httpAddr)
		log, err := os.Create(filepath.Join(cfg.workdir, fmt.Sprintf("noded-%d.log", i)))
		if err != nil {
			c.close()
			return nil, err
		}
		c.logs = append(c.logs, log)
		cmd := exec.Command(cfg.noded,
			"-id", strconv.Itoa(i),
			"-peers", strings.Join(peers, ","),
			"-http", httpAddr,
			"-shards", strconv.Itoa(apiShards),
			"-data-dir", filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			"-fsync", "always")
		cmd.Stdout, cmd.Stderr = log, log
		// The kernel kills a node if this process dies without
		// cleaning up.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			c.close()
			return nil, fmt.Errorf("start noded %d: %w", i, err)
		}
		p := &nodedProc{cmd: cmd, exited: make(chan struct{})}
		go func() {
			cmd.Wait()
			close(p.exited)
		}()
		c.procs = append(c.procs, p)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for i, ep := range c.endpoints {
		cl, err := client.New([]string{ep}, client.WithTimeout(time.Second))
		if err != nil {
			c.close()
			return nil, err
		}
		for {
			st, err := cl.Status(ctx)
			if err == nil && st.Serving {
				break
			}
			for j, p := range c.procs {
				select {
				case <-p.exited:
					cl.Close()
					c.close()
					return nil, fmt.Errorf("node %d: %w (log %s)", j+1, errNodeExited, c.logs[j].Name())
				default:
				}
			}
			if ctx.Err() != nil || time.Now().After(deadline) {
				cl.Close()
				c.close()
				return nil, fmt.Errorf("node %d not serving (last error: %v; logs in %s)", i+1, err, cfg.workdir)
			}
			time.Sleep(2 * time.Millisecond)
		}
		cl.Close()
	}
	return c, nil
}

// peakRSS sums the nodes' VmHWM.
func (c *nodedCluster) peakRSS() (float64, error) {
	total := 0.0
	for _, p := range c.procs {
		mb, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// close stops every node (SIGTERM, then SIGKILL after 5s), waits for
// each to exit and removes the data directory.
func (c *nodedCluster) close() {
	for _, p := range c.procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range c.procs {
		select {
		case <-p.exited:
		case <-time.After(5 * time.Second):
			p.cmd.Process.Kill()
			<-p.exited
		}
	}
	for _, l := range c.logs {
		l.Close()
	}
	os.RemoveAll(c.dir)
}

func runAPIDurable(ctx context.Context, cfg config) (*result, error) {
	res := &result{values: map[string]float64{}}
	res.printf("cluster: %d noded processes x %d shards on loopback TCP, -data-dir with -fsync always, other flags default; %d pkg/client workers, 1/3 writes, 1/3 sync-reads, 1/3 local reads over 8 keys; %d fresh clusters x %.1f s",
		apiNodes, apiShards, apiWorkers, segments, (cfg.seconds / segments).Seconds())
	rng := rand.New(rand.NewSource(cfg.seed))
	run := func(pass int, traced bool) (*apiPass, error) {
		t := &apiPass{cpu: map[string]int64{}}
		for i := range segments {
			var c *nodedCluster
			var t0 time.Time
			var err error
			for try := 0; ; try++ {
				t0 = time.Now()
				c, err = startNoded(ctx, cfg, filepath.Join(cfg.workdir, fmt.Sprintf("api-%d-%d", pass, i)))
				if !errors.Is(err, errNodeExited) || try == 2 {
					break
				}
			}
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			t.setups = append(t.setups, time.Since(t0).Seconds())
			err = apiLoad(ctx, rng.Int63(), cfg.seconds/segments, res, c, t, traced)
			if err == nil {
				var rss float64
				rss, err = c.peakRSS()
				t.rss = append(t.rss, rss)
			}
			c.close()
			if err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	if !cfg.trace {
		t, err := run(0, false)
		if err != nil {
			return nil, err
		}
		t.report(res)
		res.set("setup_s", slices.Min(t.setups))
		res.set("peak_rss_mb", trimmedMean(t.rss))
		res.printf("setup_s %.4f s (fastest of %d set-ups: %v)", slices.Min(t.setups), len(t.setups), roundAll(t.setups))
		res.printf("peak_rss_mb %.2f MB (VmHWM summed over the %d noded processes; trimmed mean over clusters: %v)",
			trimmedMean(t.rss), apiNodes, roundAll(t.rss))
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

// apiPass sums what the clusters of one api-durable pass measured.
type apiPass struct {
	setups, rss          []float64
	perCluster           []float64 // each cluster's ops/s
	clusterOps           []samples // each cluster's op latencies, ms
	window               time.Duration
	completed            int
	writes, syncs, reads samples
	counters             apiCounters
	scrapeErrs           int
	pending, inflight    []float64
	cpu                  map[string]int64
	tracks               []*track
}

// apiCounters are /metrics counters summed over the nodes and diffed
// across a measured window.
type apiCounters struct {
	reqs, reqSeconds, reqTotal          float64
	rounds, views                       float64
	cycles, batches, batchPayloads      float64
	sent, dropped, frames, writes, apps float64
}

func diffCounters(b, a metricsPage) apiCounters {
	reg := map[string]string{"route": "registers"}
	d := func(fam, suffix string, match map[string]string) float64 {
		return a.sum(fam, suffix, match) - b.sum(fam, suffix, match)
	}
	c := func(fam string) float64 { return d(fam, "", nil) }
	return apiCounters{
		reqs:          d("repro_http_request_seconds", "_count", reg),
		reqSeconds:    d("repro_http_request_seconds", "_sum", reg),
		reqTotal:      d("repro_http_requests_total", "", reg),
		rounds:        c("repro_vs_rounds_applied_total"),
		views:         c("repro_vs_views_installed_total"),
		cycles:        c("repro_datalink_cycles_total"),
		batches:       c("repro_datalink_batches_total"),
		batchPayloads: c("repro_datalink_batch_payloads_total"),
		sent:          c("repro_tcp_sent_total"),
		dropped:       c("repro_tcp_dropped_total"),
		frames:        c("repro_tcp_frames_written_total"),
		writes:        c("repro_tcp_conn_writes_total"),
		apps:          c("repro_storage_appends_total"),
	}
}

func (c *apiCounters) add(o apiCounters) {
	c.reqs += o.reqs
	c.reqSeconds += o.reqSeconds
	c.reqTotal += o.reqTotal
	c.rounds += o.rounds
	c.views += o.views
	c.cycles += o.cycles
	c.batches += o.batches
	c.batchPayloads += o.batchPayloads
	c.sent += o.sent
	c.dropped += o.dropped
	c.frames += o.frames
	c.writes += o.writes
	c.apps += o.apps
}

// apiWorker is one closed-loop client worker's tally.
type apiWorker struct {
	attempted, failed    int
	completed            int
	writes, syncs, reads samples
	tr                   *track
}

// apiLoad runs the workers on one cluster through a warm-up and a
// measured window, then sync-reads every key on every node, adding what
// it measured to t.
func apiLoad(ctx context.Context, seed int64, window time.Duration, res *result, c *nodedCluster, t *apiPass, traced bool) error {
	cl, err := client.New(c.endpoints, client.WithShards(apiShards), client.WithTimeout(opDeadline))
	if err != nil {
		return err
	}
	defer cl.Close()
	o := newOracle()
	var keys []string
	owned := make([][]string, apiWorkers)
	for _, per := range shard.NamesPerShard(apiShards, 4) {
		for i, k := range per {
			keys = append(keys, k)
			w := i % apiWorkers
			owned[w] = append(owned[w], k)
			o.own(k, fmt.Sprintf("w%d", w))
		}
	}
	epoch := time.Now()
	winStart := epoch.Add(warmup)
	winEnd := winStart.Add(window)
	inWindow := func(t time.Time) bool { return !t.Before(winStart) && t.Before(winEnd) }

	workers := make([]*apiWorker, apiWorkers)
	var wg sync.WaitGroup
	for w := range workers {
		wk := &apiWorker{}
		if traced {
			wk.tr = newTrack(fmt.Sprintf("c%d.worker%d", len(t.setups)-1, w), epoch)
		}
		workers[w] = wk
		rng := rand.New(rand.NewSource(seed + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var id uint32
			for ctx.Err() == nil && time.Now().Before(winEnd) {
				id++
				kind := spanKind(rng.Intn(3)) // spanWrite, spanSyncRead or spanRead
				key := keys[rng.Intn(len(keys))]
				if kind == spanWrite {
					key = owned[w][rng.Intn(len(owned[w]))]
				}
				start, end, ok := apiOp(ctx, cl, o, kind, key)
				wk.attempted++
				if !ok {
					wk.failed++
				}
				if ok && inWindow(end) {
					wk.completed++
				}
				if !ok || !inWindow(start) {
					continue
				}
				d := ms(end.Sub(start))
				switch kind {
				case spanWrite:
					wk.writes = append(wk.writes, d)
				case spanSyncRead:
					wk.syncs = append(wk.syncs, d)
				default:
					wk.reads = append(wk.reads, d)
				}
				if wk.tr != nil {
					wk.tr.add(kind, uint32(w)<<24|id, start, end)
				}
			}
		}()
	}

	var before metricsPage
	var stopSampler func()
	var profile bytes.Buffer
	if traced {
		sleepUntil(ctx, winStart)
		if before, err = scrape(c.endpoints); err != nil {
			res.printf("scrape before a window failed: %v", err)
		}
		stopSampler = sampleGauges(c.endpoints, t)
		if err := pprof.StartCPUProfile(&profile); err != nil {
			stopSampler()
			wg.Wait()
			return err
		}
	}
	sleepUntil(ctx, winEnd)
	if traced {
		pprof.StopCPUProfile()
		stopSampler()
		after, err := scrape(c.endpoints)
		if err != nil {
			res.printf("scrape after a window failed: %v", err)
		}
		if before == nil || after == nil {
			t.scrapeErrs++
		} else {
			t.counters.add(diffCounters(before, after))
		}
		if counts, err := cpuCounts(profile.Bytes()); err == nil {
			for g, n := range counts {
				t.cpu[g] += n
			}
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	t.window += winEnd.Sub(winStart)
	completed := 0
	var all samples
	for _, wk := range workers {
		all = append(append(append(all, wk.writes...), wk.syncs...), wk.reads...)
		res.attempted += wk.attempted
		res.failed += wk.failed
		completed += wk.completed
		t.writes = append(t.writes, wk.writes...)
		t.syncs = append(t.syncs, wk.syncs...)
		t.reads = append(t.reads, wk.reads...)
		if wk.tr != nil {
			t.tracks = append(t.tracks, wk.tr)
		}
	}
	t.completed += completed
	t.perCluster = append(t.perCluster, float64(completed)/window.Seconds())
	t.clusterOps = append(t.clusterOps, all.sorted())

	// Final check: every node returns the last acknowledged value.
	for i, ep := range c.endpoints {
		one, err := client.New([]string{ep}, client.WithTimeout(opDeadline))
		if err != nil {
			return err
		}
		for _, k := range keys {
			res.attempted++
			resp, err := one.SyncRead(ctx, k)
			if err != nil {
				res.failed++
				o.fail("node %d: final sync-read of %s failed: %v", i+1, k, err)
				continue
			}
			o.checkFinal(i+1, k, resp.Value, resp.Found)
		}
		one.Close()
	}
	res.violations = append(res.violations, o.report()...)
	return nil
}

// apiOp runs one op through pkg/client with its deadline and checks its
// result against the oracle; ok is false when the op failed.
func apiOp(ctx context.Context, cl *client.Client, o *oracle, kind spanKind, key string) (start, end time.Time, ok bool) {
	octx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	switch kind {
	case spanWrite:
		seq, value := o.beginWrite(key)
		start = time.Now()
		_, err := cl.Write(octx, key, value)
		end = time.Now()
		o.endWrite(key, seq, err == nil)
		return start, end, err == nil
	case spanSyncRead:
		low := o.acked(key)
		start = time.Now()
		resp, err := cl.SyncRead(octx, key)
		end = time.Now()
		if err == nil {
			o.checkSync(key, low, resp.Value, resp.Found)
		}
		return start, end, err == nil
	default:
		start = time.Now()
		resp, err := cl.Read(octx, key)
		end = time.Now()
		if err == nil {
			o.checkLocal(key, resp.Value, resp.Found)
		}
		return start, end, err == nil
	}
}

func sleepUntil(ctx context.Context, t time.Time) {
	select {
	case <-ctx.Done():
	case <-time.After(time.Until(t)):
	}
}

// metricsPage is the cluster-wide view of the nodes' /metrics pages.
type metricsPage []map[string]*obs.Family

// scrape fetches and parses every node's /metrics page.
func scrape(endpoints []string) (metricsPage, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	var page metricsPage
	for _, ep := range endpoints {
		resp, err := hc.Get(ep + "/metrics")
		if err != nil {
			return nil, err
		}
		fams, err := obs.Parse(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", ep, err)
		}
		page = append(page, fams)
	}
	return page, nil
}

// sum adds the samples of family fam named fam+suffix (a histogram's
// "_sum" or "_count") across nodes whose labels include every pair of
// match.
func (m metricsPage) sum(fam, suffix string, match map[string]string) float64 {
	total := 0.0
	for _, fams := range m {
		f, ok := fams[fam]
		if !ok {
			continue
		}
	next:
		for _, s := range f.Samples {
			if s.Name != fam+suffix {
				continue
			}
			for k, v := range match {
				if s.Labels[k] != v {
					continue next
				}
			}
			total += s.Value
		}
	}
	return total
}

// sampleGauges scrapes the queue gauges every 200ms until stopped.
func sampleGauges(endpoints []string, p *apiPass) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(200 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			page, err := scrape(endpoints)
			if err != nil {
				continue
			}
			p.pending = append(p.pending, page.sum("repro_smr_pending_commands", "", nil))
			p.inflight = append(p.inflight, page.sum("repro_datalink_inflight_window", "", nil))
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

// report sets the end-to-end metrics: throughput is the mean of the
// faster half of the run's clusters, the median pools every op and the
// p99 is calmP99. One cluster completes too few ops for a p99 with ten
// samples beyond it; the calmer half pools over a thousand.
func (p *apiPass) report(res *result) {
	all := append(append(append(samples(nil), p.writes...), p.syncs...), p.reads...).sorted()
	p99, n := calmP99(p.clusterOps)
	res.set("ops_per_s", fastHalfMean(p.perCluster))
	res.set("op_p50_ms", all.quantile(0.5))
	res.set("op_p99_ms", p99)
	res.printf("ops_per_s %.2f 1/s (mean of the faster half of the clusters: %v; %d ops in %.3f s of windows)",
		fastHalfMean(p.perCluster), roundAll(p.perCluster), p.completed, p.window.Seconds())
	res.printf("op_p99_ms %.3f ms (n=%d, the calmer half of the clusters; each cluster's p99: %v; all ops: %.3f ms)",
		p99, n, roundAll(clusterP99s(p.clusterOps)), all.quantile(0.99))
	for _, l := range [][]string{
		{fmt.Sprintf("op_p50_ms %.3f ms (n=%d)", all.quantile(0.5), len(all))}, timingLines("write", p.writes),
		timingLines("sync_read", p.syncs), timingLines("read", p.reads),
	} {
		res.lines = append(res.lines, l...)
	}
}

// layerMetrics sets the per-layer metrics of a traced api-durable pass:
// client spans plus the /metrics counters diffed across each window.
// Node-internal timings (inbox wait, tick self time, storage append
// latency, wire codec cost) are not visible from outside the processes
// and report 0.
func (p *apiPass) layerMetrics(cfg config, res *result) {
	if p.scrapeErrs > 0 {
		res.printf("%d windows left out of the /metrics counters (a scrape failed)", p.scrapeErrs)
	}
	c := p.counters
	ops := float64(p.completed)
	srvMean := 1e3 * ratio(c.reqSeconds, c.reqs)
	all := append(append(append(samples(nil), p.writes...), p.syncs...), p.reads...)
	res.set("http.server_mean_ms", srvMean)
	res.set("http.client_gap_ms", all.mean()-srvMean)
	res.set("http.requests_per_op", ratio(c.reqTotal, ops))

	rounds := c.rounds / apiNodes
	cmds := float64(len(p.writes) + len(p.syncs))
	res.set("vs.rounds_per_op", ratio(rounds, ops))
	res.set("vs.view_installs", c.views)
	res.set("smr.cmds_per_round", ratio(cmds, rounds))
	res.set("smr.pending_mean", samples(p.pending).mean())
	res.set("datalink.cycles_per_op", ratio(c.cycles, ops))
	res.set("datalink.payloads_per_batch", ratio(c.batchPayloads, c.batches))
	res.set("datalink.inflight_mean", samples(p.inflight).mean())
	res.set("tcp.msgs_per_op", ratio(c.sent, ops))
	res.set("tcp.frames_per_write", ratio(c.frames, c.writes))
	res.set("tcp.dropped_share", ratio(c.dropped, c.sent))
	res.set("storage.appends_per_op", ratio(c.apps, ops))

	setCPUShares(res, p.cpu)
	res.printf("http: %.0f register requests served, server mean %.3f ms, client mean %.3f ms", c.reqs, srvMean, all.mean())
	res.printf("node, wire, storage timings: n/a (inside the noded processes)")
	res.printf("sim cells: n/a (live workload)")
	lt := aggregate(p.tracks, 0, 1<<62)
	res.printf("client spans (%d ops in the windows):", p.completed)
	res.lines = append(res.lines, lt.selfTable(p.completed)...)
	writeTrace(cfg, res, p.tracks)
}
