package ids

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIDValidity(t *testing.T) {
	tests := []struct {
		id   ID
		want bool
	}{
		{None, false},
		{-1, false},
		{1, true},
		{42, true},
	}
	for _, tt := range tests {
		if got := tt.id.Valid(); got != tt.want {
			t.Errorf("(%d).Valid() = %v, want %v", tt.id, got, tt.want)
		}
	}
}

func TestIDString(t *testing.T) {
	if got := ID(7).String(); got != "p7" {
		t.Errorf("String() = %q, want p7", got)
	}
	if got := None.String(); got != "p?" {
		t.Errorf("None.String() = %q, want p?", got)
	}
}

func TestNewSetDedupSort(t *testing.T) {
	s := NewSet(3, 1, 2, 3, 1, 0, -5)
	want := []ID{1, 2, 3}
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("Members() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members() = %v, want %v", got, want)
		}
	}
}

func TestRange(t *testing.T) {
	if s := Range(2, 4); s.Size() != 3 || !s.Contains(2) || !s.Contains(3) || !s.Contains(4) {
		t.Errorf("Range(2,4) = %v", s)
	}
	if s := Range(4, 2); !s.Empty() {
		t.Errorf("Range(4,2) = %v, want empty", s)
	}
}

func TestSetOperations(t *testing.T) {
	a := NewSet(1, 2, 3)
	b := NewSet(3, 4, 5)

	if got := a.Union(b); !got.Equal(NewSet(1, 2, 3, 4, 5)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewSet(3)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); !got.Equal(NewSet(1, 2)) {
		t.Errorf("Diff = %v", got)
	}
	if got := a.Add(9); !got.Equal(NewSet(1, 2, 3, 9)) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Remove(2); !got.Equal(NewSet(1, 3)) {
		t.Errorf("Remove = %v", got)
	}
	if got := a.Remove(99); !got.Equal(a) {
		t.Errorf("Remove(absent) = %v", got)
	}
	if got := a.Filter(func(id ID) bool { return id%2 == 1 }); !got.Equal(NewSet(1, 3)) {
		t.Errorf("Filter = %v", got)
	}
}

func TestSetImmutability(t *testing.T) {
	a := NewSet(1, 2, 3)
	_ = a.Add(4)
	_ = a.Remove(1)
	_ = a.Union(NewSet(9))
	if !a.Equal(NewSet(1, 2, 3)) {
		t.Fatalf("operations mutated receiver: %v", a)
	}
	m := a.Members()
	m[0] = 99
	if !a.Equal(NewSet(1, 2, 3)) {
		t.Fatalf("Members() aliases internal slice")
	}
}

func TestSubset(t *testing.T) {
	if !NewSet(1, 2).Subset(NewSet(1, 2, 3)) {
		t.Error("subset not detected")
	}
	if NewSet(1, 4).Subset(NewSet(1, 2, 3)) {
		t.Error("non-subset reported as subset")
	}
	if !NewSet().Subset(NewSet(1)) {
		t.Error("empty set must be subset of everything")
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b Set
		want int
	}{
		{NewSet(1, 2), NewSet(1, 2), 0},
		{NewSet(1, 2), NewSet(1, 3), -1},
		{NewSet(1, 3), NewSet(1, 2), 1},
		{NewSet(1), NewSet(1, 2), -1},
		{NewSet(1, 2), NewSet(1), 1},
		{NewSet(), NewSet(), 0},
	}
	for _, tt := range tests {
		if got := tt.a.Compare(tt.b); got != tt.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMajoritySize(t *testing.T) {
	tests := []struct {
		n, want int
	}{
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {6, 4},
	}
	for _, tt := range tests {
		s := Range(1, ID(tt.n))
		if got := s.MajoritySize(); got != tt.want {
			t.Errorf("|s|=%d: MajoritySize=%d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestString(t *testing.T) {
	if got := NewSet(2, 1).String(); got != "{p1,p2}" {
		t.Errorf("String() = %q", got)
	}
	if got := NewSet().String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
}

func randomSet(rng *rand.Rand) Set {
	n := rng.Intn(8)
	members := make([]ID, 0, n)
	for i := 0; i < n; i++ {
		members = append(members, ID(rng.Intn(10)+1))
	}
	return NewSet(members...)
}

func TestQuickSetAlgebra(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}

	// Union is commutative; intersection distributes; diff removes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng), randomSet(rng)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		if !a.Diff(b).Intersect(b).Empty() {
			return false
		}
		if !a.Diff(b).Union(a.Intersect(b)).Equal(a) {
			return false
		}
		// Compare is a total order: antisymmetric and reflexive.
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		if a.Compare(a) != 0 {
			return false
		}
		// Add equals rebuilding from the members plus id, and leaves
		// its receiver unchanged (ids 0 and 11 exercise the invalid and
		// the beyond-the-end cases).
		id := ID(rng.Intn(12))
		before := a.Members()
		if !a.Add(id).Equal(NewSet(append(a.Members(), id)...)) {
			return false
		}
		if !a.Equal(NewSet(before...)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMajorityIntersection(t *testing.T) {
	// Any two majorities of the same set intersect — the quorum property
	// the whole reconfiguration scheme relies on.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := Range(1, ID(rng.Intn(9)+1))
		pickMajority := func() Set {
			m := NewSet()
			for _, id := range base.Members() {
				if rng.Intn(2) == 0 {
					m = m.Add(id)
				}
			}
			for m.Size() < base.MajoritySize() {
				m = m.Add(base.Members()[rng.Intn(base.Size())])
			}
			return m
		}
		q1, q2 := pickMajority(), pickMajority()
		return !q1.Intersect(q2).Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

var setSink Set

// BenchmarkSetAdd inserts into the middle of a 16-member set, the size of
// the simulator's N=16 trusted sets.
func BenchmarkSetAdd(b *testing.B) {
	s := NewSet()
	for id := ID(1); id <= 32; id += 2 {
		s = s.Add(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setSink = s.Add(ID(2 + 2*(i%16)))
	}
}
