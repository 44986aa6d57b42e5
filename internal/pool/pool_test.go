package pool

import "testing"

func TestMakeRecyclesZeroed(t *testing.T) {
	p := New(1)
	s := Make[uint64](p, 4)
	for i := range s {
		s[i] = 7
	}
	Put(p, s)
	r := Make[uint64](p, 4)
	if &r[0] != &s[0] {
		t.Fatal("Make did not recycle the array Put returned")
	}
	for i, v := range r {
		if v != 0 {
			t.Fatalf("recycled word %d = %d, want 0", i, v)
		}
	}
	if o := Make[uint64](p, 4); &o[0] == &r[0] {
		t.Fatal("one array handed out twice")
	}
}

func TestCloneCopiesIntoRecycled(t *testing.T) {
	p := New(1)
	Put(p, []int32{9, 9, 9})
	c := Clone(p, []int32{1, 2, 3})
	if c[0] != 1 || c[1] != 2 || c[2] != 3 {
		t.Fatalf("Clone = %v", c)
	}
	if _, ok := Take[int32](p, 3); ok {
		t.Fatal("Clone left the recycled array in the pool")
	}
	if Clone[int32](p, nil) != nil {
		t.Fatal("Clone of an empty slice is not nil")
	}
}

func TestKeysByTypeAndLength(t *testing.T) {
	p := New(4)
	Put(p, make([]uint64, 8))
	if _, ok := Take[int64](p, 8); ok {
		t.Fatal("an []uint64 served an []int64")
	}
	if _, ok := Take[uint64](p, 4); ok {
		t.Fatal("an 8-word array served a 4-word one")
	}
	if _, ok := Take[uint64](p, 8); !ok {
		t.Fatal("the 8-word array is gone")
	}
}

func TestKeepBoundsIdleArrays(t *testing.T) {
	p := New(2)
	for i := 0; i < 5; i++ {
		Put(p, make([]byte, 16))
	}
	n := 0
	for {
		if _, ok := Take[byte](p, 16); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("pool kept %d idle arrays, want 2", n)
	}
}

func TestNilPoolAllocates(t *testing.T) {
	var p *Pool
	Put(p, make([]uint64, 3))
	if s := Make[uint64](p, 3); len(s) != 3 {
		t.Fatalf("Make on a nil pool: len %d", len(s))
	}
	if _, ok := Take[uint64](p, 3); ok {
		t.Fatal("a nil pool held an array")
	}
}

func TestStatsCountTraffic(t *testing.T) {
	p := New(1)
	a := Make[uint64](p, 4)    // allocated
	b := Clone(p, []uint64{1}) // allocated
	Put(p, a)
	Put(p, make([]uint64, 4)) // dropped: the key holds one already
	Put(p, b)
	Make[uint64](p, 4) // reused
	if _, ok := Take[uint64](p, 8); ok {
		t.Fatal("Take served an absent key")
	}
	want := Stats{Reused: 1, Allocated: 3, Dropped: 1}
	if got := p.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	if (*Pool)(nil).Stats() != (Stats{}) {
		t.Fatal("a nil pool reported traffic")
	}
}

func TestAppendGrowsThroughThePool(t *testing.T) {
	p := New(1)
	var s []int
	for i := 0; i < 5; i++ {
		s = Append(p, s, i)
	}
	if len(s) != 5 || cap(s) != 8 || s[0] != 0 || s[4] != 4 {
		t.Fatalf("Append built %v, cap %d", s, cap(s))
	}
	// Growing returned the outgrown arrays of capacities 1, 2 and 4, so a
	// second structure's growth allocates only past them.
	before := p.Stats()
	var r []int
	for i := 0; i < 5; i++ {
		r = Append(p, r, i)
	}
	if got := p.Stats(); got.Allocated-before.Allocated != 1 || got.Reused-before.Reused != 3 {
		t.Fatalf("second growth: %+v after %+v", got, before)
	}
}
