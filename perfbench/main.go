// Command perfbench is the repository benchmark. It runs one workload
// per invocation, checks the outputs for correctness, prints a
// human-readable report and, as its last line, one JSON object with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). BENCHMARK.json at the repository root lists the workloads and
// metrics; README.md in this directory describes them.
//
// Usage (from the repository root; run.py builds the binaries first):
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1 -noded PATH -workdir DIR
//
// The layers are measured from outside the program: the benchmark
// times its own calls into each layer's public functions, wraps the
// interfaces the stack is assembled from (core.App, the node's
// transport, storage.Backend) and reads the counters the layers
// already export.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload. For the live workloads an op is one register operation;
// for sim-tables it is one experiment (E6, E3 or E8 at N=16).
var endToEnd = []metric{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0; the report lines mark it n/a.
var perLayer = []metric{
	{"http.server_mean_ms", "ms"},
	{"http.client_gap_ms", "ms"},
	{"http.requests_per_op", "count"},
	{"node.inbox_wait_p50_us", "us"},
	{"node.inbox_wait_p99_us", "us"},
	{"node.busy_share", "share"},
	{"core.tick_self_us", "us"},
	{"vs.app_busy_share", "share"},
	{"vs.rounds_per_op", "count"},
	{"vs.view_installs", "count"},
	{"smr.cmds_per_round", "count"},
	{"smr.pending_mean", "count"},
	{"datalink.cycles_per_op", "count"},
	{"datalink.payloads_per_batch", "count"},
	{"datalink.inflight_mean", "count"},
	{"tcp.msgs_per_op", "count"},
	{"tcp.frames_per_write", "count"},
	{"tcp.dropped_share", "share"},
	{"wire.bytes_per_op", "B"},
	{"wire.encode_ns_per_msg", "ns"},
	{"wire.decode_ns_per_msg", "ns"},
	{"storage.appends_per_op", "count"},
	{"storage.bytes_per_op", "B"},
	{"storage.append_p50_us", "us"},
	{"storage.append_p99_us", "us"},
	{"storage.busy_share", "share"},
	{"sim.E6_s", "s"},
	{"sim.E3_s", "s"},
	{"sim.E8_s", "s"},
	{"sim.cpu_share.fd", "share"},
	{"sim.cpu_share.ids", "share"},
	{"sim.cpu_share.sched", "share"},
	{"sim.cpu_share.recsa", "share"},
	{"sim.cpu_share.gc", "share"},
	{"trace.overhead_share", "share"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	noded    string // path of the built noded binary
	workdir  string // work directory inside the repository checkout
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	violations        []string
	values            map[string]float64
	lines             []string
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) printf(format string, a ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, a...))
}

type workloadFunc func(ctx context.Context, cfg config) (*result, error)

var workloads = map[string]workloadFunc{
	"api-durable":     runAPIDurable,
	"stack-pipelined": func(ctx context.Context, cfg config) (*result, error) { return runStack(ctx, cfg, false) },
	"stack-durable":   func(ctx context.Context, cfg config) (*result, error) { return runStack(ctx, cfg, true) },
	"sim-tables":      runSimTables,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg   config
		trace int
		secs  int
		probe bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: drives only the generated key/op sequence (sim-tables: the seed of the untimed validation pass)")
	flag.IntVar(&secs, "seconds", 10, "measured window in seconds (live workloads)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.noded, "noded", "", "path of the noded binary (api-durable)")
	flag.StringVar(&cfg.workdir, "workdir", "", "work directory for data dirs, logs and span files")
	flag.BoolVar(&probe, "probe-sim", false, "initialise the simulator and exit (sim-tables set-up probe)")
	flag.Parse()
	if probe {
		return probeSim()
	}
	fn, ok := workloads[cfg.workload]
	switch {
	case !ok:
		return usage(fmt.Errorf("unknown -workload %q", cfg.workload))
	case trace != 0 && trace != 1:
		return usage(fmt.Errorf("-trace must be 0 or 1"))
	case secs < 1:
		return usage(fmt.Errorf("-seconds must be >= 1"))
	case cfg.workdir == "":
		return usage(fmt.Errorf("-workdir is required"))
	case cfg.workload == "api-durable" && cfg.noded == "":
		return usage(fmt.Errorf("-noded is required for api-durable"))
	}
	cfg.trace = trace == 1
	cfg.seconds = time.Duration(secs) * time.Second
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := fn(ctx, cfg)
	if err != nil {
		if errors.Is(ctx.Err(), context.Canceled) {
			err = fmt.Errorf("interrupted: %w", err)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return emit(cfg, res)
}

func usage(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	flag.Usage()
	return 2
}

// emit prints the report and the result line; a correctness violation
// exits nonzero.
func emit(cfg config, res *result) int {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v\n",
		cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace)
	for _, l := range res.lines {
		fmt.Println(l)
	}
	for _, v := range res.violations {
		fmt.Println("VIOLATION:", v)
	}
	fmt.Printf("attempted %d, failed %d, failed_share %.6f\n",
		res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)))

	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	names := make([]string, 0, len(want))
	for _, m := range want {
		metrics[m.name] = value{Value: res.values[m.name], Unit: m.unit}
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.6f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	correct := len(res.violations) == 0
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}
