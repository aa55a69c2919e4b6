package fd

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func TestSelfAlwaysTrusted(t *testing.T) {
	d := New(1, DefaultOptions(8))
	if !d.Trusted().Contains(1) {
		t.Fatal("self not trusted")
	}
}

func TestHeartbeatResetsAndIncrements(t *testing.T) {
	d := New(1, DefaultOptions(8))
	d.Heartbeat(2)
	d.Heartbeat(3)
	c2, _ := d.Count(2)
	c3, _ := d.Count(3)
	if c2 != 1 || c3 != 0 {
		t.Fatalf("counts: p2=%d p3=%d, want 1,0", c2, c3)
	}
	d.Heartbeat(2)
	c2, _ = d.Count(2)
	c3, _ = d.Count(3)
	if c2 != 0 || c3 != 1 {
		t.Fatalf("counts after: p2=%d p3=%d, want 0,1", c2, c3)
	}
}

func TestSelfHeartbeatIgnored(t *testing.T) {
	d := New(1, DefaultOptions(8))
	d.Heartbeat(1)
	if _, known := d.Count(1); known {
		t.Fatal("self heartbeat recorded")
	}
}

// simulateRounds performs `rounds` of round-robin heartbeats from alive
// peers.
func simulateRounds(d *Detector, alive []ids.ID, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, p := range alive {
			d.Heartbeat(p)
		}
	}
}

func TestCrashedSuspectedAliveTrusted(t *testing.T) {
	d := New(1, DefaultOptions(10))
	everyone := []ids.ID{2, 3, 4, 5, 6}
	simulateRounds(d, everyone, 20)
	if got := d.Trusted(); !got.Equal(ids.Range(1, 6)) {
		t.Fatalf("all alive should be trusted, got %v", got)
	}
	// p6 crashes: only 2..5 keep beating.
	simulateRounds(d, []ids.ID{2, 3, 4, 5}, 100)
	trusted := d.Trusted()
	if trusted.Contains(6) {
		t.Fatalf("crashed p6 still trusted: %v", trusted)
	}
	if !ids.Range(1, 5).Subset(trusted) {
		t.Fatalf("alive processors suspected: %v", trusted)
	}
	if !d.Suspected().Contains(6) {
		t.Fatalf("Suspected() = %v", d.Suspected())
	}
}

func TestEstimateTracksActives(t *testing.T) {
	d := New(1, DefaultOptions(10))
	simulateRounds(d, []ids.ID{2, 3, 4}, 30)
	if got := d.Estimate(); got != 4 {
		t.Fatalf("Estimate = %d, want 4 (self + 3 peers)", got)
	}
}

func TestNBoundCapsTrusted(t *testing.T) {
	opts := DefaultOptions(3) // N = 3
	d := New(1, opts)
	simulateRounds(d, []ids.ID{2, 3, 4, 5, 6, 7}, 20)
	if got := d.Trusted().Size(); got > 3 {
		t.Fatalf("trusted %d > N=3", got)
	}
}

func TestBootstrapTrustsImmediately(t *testing.T) {
	d := New(1, DefaultOptions(8))
	d.Bootstrap(ids.NewSet(2, 3, 4))
	if !d.Trusted().Equal(ids.NewSet(1, 2, 3, 4)) {
		t.Fatalf("Trusted = %v after bootstrap", d.Trusted())
	}
	// Bootstrapped peers that never beat are eventually suspected.
	simulateRounds(d, []ids.ID{2, 3}, 200)
	if d.Trusted().Contains(4) {
		t.Fatalf("silent bootstrapped peer still trusted: %v", d.Trusted())
	}
}

func TestForget(t *testing.T) {
	d := New(1, DefaultOptions(8))
	d.Heartbeat(2)
	d.Forget(2)
	if _, known := d.Count(2); known {
		t.Fatal("Forget did not remove entry")
	}
}

func TestCorruptCountsRecovers(t *testing.T) {
	d := New(1, DefaultOptions(8))
	alive := []ids.ID{2, 3, 4}
	simulateRounds(d, alive, 10)
	// Transient fault: all counts arbitrary.
	rng := rand.New(rand.NewSource(1))
	d.CorruptCounts(func(ids.ID) uint64 { return uint64(rng.Int63n(1 << 19)) })
	// Fresh heartbeats must re-establish trust in the alive set.
	simulateRounds(d, alive, 200)
	if !ids.NewSet(1, 2, 3, 4).Subset(d.Trusted()) {
		t.Fatalf("did not recover from corrupted counts: %v", d.Trusted())
	}
}

func TestQuickEventualSuspicion(t *testing.T) {
	// Property: from any corrupted state, if a subset keeps beating and
	// the rest stay silent, the silent ones are eventually suspected and
	// the beating ones trusted.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(1, DefaultOptions(12))
		var alive, dead []ids.ID
		for p := ids.ID(2); p <= 9; p++ {
			if rng.Intn(2) == 0 {
				alive = append(alive, p)
			} else {
				dead = append(dead, p)
			}
			d.Heartbeat(p) // make the entry known
		}
		d.CorruptCounts(func(ids.ID) uint64 { return uint64(rng.Int63n(1000)) })
		if len(alive) == 0 {
			return true
		}
		simulateRounds(d, alive, 400)
		trusted := d.Trusted()
		for _, p := range alive {
			if !trusted.Contains(p) {
				return false
			}
		}
		for _, p := range dead {
			if trusted.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCountBoundsStorage(t *testing.T) {
	opts := DefaultOptions(4)
	opts.MaxCount = 100
	d := New(1, opts)
	d.Heartbeat(2)
	d.Heartbeat(3)
	for i := 0; i < 1000; i++ {
		d.Heartbeat(3)
	}
	if c, _ := d.Count(2); c > 100 {
		t.Fatalf("count %d exceeds MaxCount", c)
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := New(1, Options{})
	if d.opts.N <= 0 || d.opts.GapFactor < 2 || d.opts.GapFloor == 0 || d.opts.MaxCount == 0 {
		t.Fatalf("defaults not applied: %+v", d.opts)
	}
}

// referenceTrusted is the uncached algorithm Trusted replaced: rank with
// sort.Slice on (count, id), then grow the set one Add at a time. The
// differential test holds the cached Trusted to it.
func referenceTrusted(d *Detector) ids.Set {
	ranked := make([]rankedEntry, 0, len(d.counts))
	for id, c := range d.counts {
		ranked = append(ranked, rankedEntry{id, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count < ranked[j].count
		}
		return ranked[i].id < ranked[j].id
	})
	trusted := ids.NewSet(d.self)
	prev := d.opts.GapFloor
	for _, e := range ranked {
		if trusted.Size() >= d.opts.N {
			break
		}
		bound := prev
		if bound < d.opts.GapFloor {
			bound = d.opts.GapFloor
		}
		if e.count > bound*uint64(d.opts.GapFactor) {
			break
		}
		trusted = trusted.Add(e.id)
		prev = e.count
	}
	return trusted
}

// TestTrustedCacheMatchesReference drives random sequences of every count
// mutator and Trusted reads, and checks the cached Trusted (and the
// Suspected/Estimate views built on it) against referenceTrusted after
// every operation. Peer universes larger than N exercise the N cap; a
// set of rarely beating peers and corrupted counts open the gap.
func TestTrustedCacheMatchesReference(t *testing.T) {
	for _, n := range []int{3, 8, 24} {
		for _, peers := range []int{n - 1, n + 5, 2 * n} {
			t.Run(fmt.Sprintf("N=%d/peers=%d", n, peers), func(t *testing.T) {
				var gaps, caps int
				for seed := int64(1); seed <= 20; seed++ {
					g, c := checkTrustedRun(t, n, peers, seed)
					gaps, caps = gaps+g, caps+c
				}
				// The run must reach both ways a known peer goes
				// untrusted, or it tests less than it claims.
				if gaps == 0 || (peers >= n && caps == 0) {
					t.Fatalf("coverage: %d reads past a gap, %d at the N cap", gaps, caps)
				}
			})
		}
	}
}

// checkTrustedRun runs one random sequence and returns how many of its
// reads left a known peer untrusted below the N cap (a gap) and at it.
func checkTrustedRun(t *testing.T, n, peers int, seed int64) (gaps, caps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := New(1, DefaultOptions(n))
	// Peers 2..peers+1; a random part of them beats often, the rest
	// rarely, so their counts climb past the gap.
	universe := ids.Range(2, ids.ID(peers+1)).Members()
	often := make(map[ids.ID]bool)
	for _, p := range universe {
		often[p] = rng.Intn(3) > 0
	}
	randomPeer := func() ids.ID {
		if rng.Intn(20) == 0 {
			return ids.ID(rng.Intn(3) - 1) // self, None or an invalid id
		}
		return universe[rng.Intn(len(universe))]
	}
	for step := 0; step < 400; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 70:
			p := randomPeer()
			if p.Valid() && !often[p] && rng.Intn(8) > 0 {
				op = "Trusted"
				break
			}
			op = fmt.Sprintf("Heartbeat(%v)", p)
			d.Heartbeat(p)
		case r < 80:
			p := randomPeer()
			op = fmt.Sprintf("Forget(%v)", p)
			d.Forget(p)
		case r < 86:
			var sub []ids.ID
			for _, p := range universe {
				if rng.Intn(3) == 0 {
					sub = append(sub, p)
				}
			}
			op = fmt.Sprintf("Bootstrap(%v)", ids.NewSet(sub...))
			d.Bootstrap(ids.NewSet(sub...))
		case r < 90:
			op = "CorruptCounts"
			limit := int64(4 * 4 * d.opts.GapFloor)
			d.CorruptCounts(func(ids.ID) uint64 { return uint64(rng.Int63n(limit)) })
		default:
			op = "Trusted"
		}
		want := referenceTrusted(d)
		for read := 0; read < 2; read++ { // a miss, then a cache hit
			if got := d.Trusted(); !got.Equal(want) {
				t.Fatalf("seed %d step %d after %s: Trusted = %v, reference %v", seed, step, op, got, want)
			}
		}
		if got := d.Estimate(); got != want.Size() {
			t.Fatalf("seed %d step %d after %s: Estimate = %d, want %d", seed, step, op, got, want.Size())
		}
		var suspected []ids.ID
		for id := range d.counts {
			if !want.Contains(id) {
				suspected = append(suspected, id)
			}
		}
		if got := d.Suspected(); !got.Equal(ids.NewSet(suspected...)) {
			t.Fatalf("seed %d step %d after %s: Suspected = %v, want %v", seed, step, op, got, ids.NewSet(suspected...))
		}
		switch {
		case len(suspected) == 0:
		case want.Size() < n:
			gaps++
		default:
			caps++
		}
	}
	return gaps, caps
}

var trustedSink ids.Set

// BenchmarkDetectorTrusted measures a Trusted read with every peer alive
// and beating: "steady" reads an unchanged detector, "afterHeartbeat"
// records one heartbeat before each read, as every datalink token does.
func BenchmarkDetectorTrusted(b *testing.B) {
	for _, n := range []int{8, 24} {
		alive := ids.Range(2, ids.ID(n)).Members()
		setup := func() *Detector {
			d := New(1, DefaultOptions(n))
			simulateRounds(d, alive, 20)
			return d
		}
		b.Run(fmt.Sprintf("N=%d/steady", n), func(b *testing.B) {
			d := setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trustedSink = d.Trusted()
			}
		})
		b.Run(fmt.Sprintf("N=%d/afterHeartbeat", n), func(b *testing.B) {
			d := setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Heartbeat(alive[i%len(alive)])
				trustedSink = d.Trusted()
			}
		})
	}
}
