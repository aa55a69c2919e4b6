package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanKind names the layer boundary a span was recorded at. Every span
// is recorded by the benchmark around a call into a layer's public
// surface; nothing inside the program is instrumented.
type spanKind uint8

const (
	spanWrite    spanKind = iota // op.write: invoke → acknowledged
	spanSyncRead                 // op.sync_read
	spanRead                     // op.read
	spanSubmit                   // node.submit: Inspect closure submitting an op
	spanTick                     // node.tick: transport handler Tick
	spanReceive                  // node.receive: transport handler Receive
	spanApp                      // vs.app: a wrapped core.App call
	spanSend                     // tcp.send: the node's Send into tcp.Net
	spanAppend                   // storage.append: wrapped Backend.Append
	spanSnapshot                 // storage.snapshot: wrapped Backend.SaveSnapshot
	spanCell                     // sim.cell: one experiment's engine.Run
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op.write", "op.sync_read", "op.read", "node.submit", "node.tick",
	"node.receive", "vs.app", "tcp.send", "storage.append",
	"storage.snapshot", "sim.cell",
}

// maxSpans bounds one track's memory (32 bytes a span); spans past it
// are counted as dropped, never silently.
const maxSpans = 4 << 20

type span struct {
	start, end int64 // ns since the trace epoch
	parent     int32 // index of the enclosing span on the same track, -1 for none
	op         uint32
	kind       spanKind
}

// track is the span log of one goroutine — a node's event loop, a load
// worker or the simulator loop. Only its goroutine appends to it, so
// parents are the spans still open on that goroutine.
type track struct {
	name    string
	epoch   time.Time
	spans   []span
	open    int32
	dropped int
}

func newTrack(name string, epoch time.Time) *track {
	return &track{name: name, epoch: epoch, open: -1}
}

func (t *track) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open one and returns its
// handle for end (-1 when the track is full).
func (t *track) begin(k spanKind, op uint32) int32 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), parent: t.open, op: op, kind: k})
	t.open = i
	return i
}

func (t *track) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = t.now()
	t.open = t.spans[i].parent
}

// add records an already-timed span with no parent (a span measured on
// another goroutine, such as an op's invoke → completion).
func (t *track) add(k spanKind, op uint32, start, end time.Time) {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
		parent: -1, op: op, kind: k,
	})
}

// layerTimes aggregates spans by kind: count, total and self time (a
// span's duration minus the part its direct children cover — children
// on one goroutine never overlap, so that is the sum of their lengths).
type layerTimes struct {
	top     time.Duration // spans with no parent: a goroutine's busy time
	count   [numSpanKinds]int
	total   [numSpanKinds]time.Duration
	self    [numSpanKinds]time.Duration
	durs    [numSpanKinds][]float64 // ms, for the kinds percentiles are asked of
	dropped int
}

// aggregate sums the spans of tracks that start in [from, to) (ns since
// the epoch), keeping the durations of the kinds in keep.
func aggregate(tracks []*track, from, to int64, keep ...spanKind) *layerTimes {
	lt := &layerTimes{}
	want := map[spanKind]bool{}
	for _, k := range keep {
		want[k] = true
	}
	for _, t := range tracks {
		lt.dropped += t.dropped
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 && s.end > 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			if s.end == 0 || s.start < from || s.start >= to {
				continue // outside the window, or still open when the trace ended
			}
			d := s.end - s.start
			if s.parent < 0 {
				lt.top += time.Duration(d)
			}
			lt.count[s.kind]++
			lt.total[s.kind] += time.Duration(d)
			lt.self[s.kind] += time.Duration(d - child[i])
			if want[s.kind] {
				lt.durs[s.kind] = append(lt.durs[s.kind], float64(d)/1e6)
			}
		}
	}
	return lt
}

// add folds in another window's aggregate.
func (lt *layerTimes) add(o *layerTimes) {
	lt.top += o.top
	lt.dropped += o.dropped
	for k := range o.count {
		lt.count[k] += o.count[k]
		lt.total[k] += o.total[k]
		lt.self[k] += o.self[k]
		lt.durs[k] = append(lt.durs[k], o.durs[k]...)
	}
}

// selfTable renders per-layer self time per op.
func (lt *layerTimes) selfTable(ops int) []string {
	var out []string
	for k := spanKind(0); k < numSpanKinds; k++ {
		if lt.count[k] == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("  %-17s spans %9d  total %10.1f ms  self %10.1f ms  self/op %9.2f us",
			spanNames[k], lt.count[k], ms(lt.total[k]), ms(lt.self[k]),
			ratio(float64(lt.self[k])/1e3, float64(ops))))
	}
	if lt.dropped > 0 {
		out = append(out, fmt.Sprintf("  %d spans dropped past the %d-span track bound", lt.dropped, maxSpans))
	}
	return out
}

// writeSpans writes every span as CSV: track, id, name, start and end
// (ns since the epoch), parent id (-1 for none) and op id (0 for none).
func writeSpans(path string, tracks []*track) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "track,id,name,start_ns,end_ns,parent,op")
	sorted := append([]*track(nil), tracks...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, t := range sorted {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d,%d\n", t.name, i, spanNames[s.kind], s.start, s.end, s.parent, s.op)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
