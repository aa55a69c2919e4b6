package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// oracle checks the register histories of the live workloads against
// the single-writer register conditions: every key has one writer whose
// values carry (writer, seq); a sync-read returns a seq at least that of
// the last write to its key acknowledged before the read began; a local
// read returns a value that was written; after the run every node
// returns the last acknowledged value of every key.
type oracle struct {
	mu         sync.Mutex
	keys       map[string]*keyHistory
	violations []string
}

type keyHistory struct {
	writer string
	issued uint64 // highest seq handed to a write
	acked  uint64 // highest seq acknowledged
	// unsure is the highest seq of a failed write, which may or may
	// not have taken effect.
	unsure uint64
}

func newOracle() *oracle { return &oracle{keys: map[string]*keyHistory{}} }

// own registers key as written only by writer.
func (o *oracle) own(key, writer string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.keys[key] = &keyHistory{writer: writer}
}

// beginWrite returns the next value to write to key.
func (o *oracle) beginWrite(key string) (uint64, string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := o.keys[key]
	k.issued++
	return k.issued, fmt.Sprintf("%s:%d", k.writer, k.issued)
}

func (o *oracle) endWrite(key string, seq uint64, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := o.keys[key]
	if ok {
		k.acked = max(k.acked, seq)
	} else {
		k.unsure = max(k.unsure, seq)
	}
}

// acked is the seq a sync-read of key invoked now must at least return.
func (o *oracle) acked(key string) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.keys[key].acked
}

func (o *oracle) fail(format string, a ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, a...))
	} else if len(o.violations) == 20 {
		o.violations = append(o.violations, "further violations suppressed")
	}
}

// seqOf parses a written value of key; ok is false for a value no
// writer of key could have produced.
func (o *oracle) seqOf(key, value string) (uint64, bool) {
	i := strings.LastIndexByte(value, ':')
	if i < 0 {
		return 0, false
	}
	seq, err := strconv.ParseUint(value[i+1:], 10, 64)
	o.mu.Lock()
	k := o.keys[key]
	ok := err == nil && seq >= 1 && value[:i] == k.writer && seq <= k.issued
	o.mu.Unlock()
	return seq, ok
}

// checkSync checks a sync-read of key that began when low was acked.
func (o *oracle) checkSync(key string, low uint64, value string, found bool) {
	if !found {
		if low > 0 {
			o.fail("sync-read %s: not found, but seq %d was acknowledged before the read", key, low)
		}
		return
	}
	seq, ok := o.seqOf(key, value)
	switch {
	case !ok:
		o.fail("sync-read %s: value %q was never written", key, value)
	case seq < low:
		o.fail("sync-read %s: stale seq %d, seq %d was acknowledged before the read", key, seq, low)
	}
}

// checkLocal checks a local read: any written value, or none.
func (o *oracle) checkLocal(key, value string, found bool) {
	if !found {
		return
	}
	if _, ok := o.seqOf(key, value); !ok {
		o.fail("read %s: value %q was never written", key, value)
	}
}

// checkFinal checks one node's value of key after every op ended.
func (o *oracle) checkFinal(node int, key, value string, found bool) {
	o.mu.Lock()
	k := *o.keys[key]
	o.mu.Unlock()
	if !found {
		if k.acked > 0 {
			o.fail("node %d: %s not found after the run, want seq %d", node, key, k.acked)
		}
		return
	}
	seq, ok := o.seqOf(key, value)
	hi := k.acked
	if k.unsure > hi {
		hi = k.issued
	}
	if !ok || seq < k.acked || seq > hi {
		o.fail("node %d: %s = %q after the run, want the last acknowledged seq %d", node, key, value, k.acked)
	}
}

func (o *oracle) report() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.violations...)
}
