package cache

import (
	"bytes"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/policy"
)

// refWay is one way of the reference model: the entry, its valid flag,
// its generation record (kept whether or not the cache tracks times) and
// its LRU stamp.
type refWay struct {
	blk   Block // blk.Key mirrors the cache's tag
	valid bool
	gen   Gen
	dead  bool
	stamp uint64
}

// refCache is a deliberately plain model of an LRU Cache: per set, a slice
// of ways plus a clock, with the victim rule spelled out directly — an
// invalid way first (lowest index), else the policy victim (lowest stamp,
// lowest way on ties) unless it is not dead-marked while another way is,
// in which case the lowest dead-marked way. An entry's saturating hit
// count is derived from its exact one.
type refCache struct {
	name  string
	times bool // whether the modelled cache tracks times
	sets  [][]refWay
	clock []uint64
	st    Stats
}

func newRef(name string, sets, ways int, times bool) *refCache {
	r := &refCache{name: name, times: times, sets: make([][]refWay, sets), clock: make([]uint64, sets)}
	for s := range r.sets {
		r.sets[s] = make([]refWay, ways)
		for w := range r.sets[s] {
			r.sets[s][w].stamp = uint64(w)
		}
		r.clock[s] = uint64(ways)
	}
	return r
}

func (r *refCache) set(key uint64) int { return int(key % uint64(len(r.sets))) }

// find returns the way holding key, or -1.
func (r *refCache) find(key uint64) (set, way int) {
	set = r.set(key)
	for w, e := range r.sets[set] {
		if e.valid && e.blk.Key == key {
			return set, w
		}
	}
	return set, -1
}

func (r *refCache) touch(set, way int, k, now uint64) *Block {
	e := &r.sets[set][way]
	r.st.Lookups += k
	r.st.Hits += k
	e.blk.Accessed = true
	e.gen.Hits += k
	e.gen.LastHitTime = now
	e.blk.Hits = uint8(min(e.gen.Hits, uint64(MaxHits)))
	e.dead = false
	r.clock[set] += k
	e.stamp = r.clock[set]
	return &e.blk
}

func (r *refCache) lookup(key, now uint64) (*Block, bool) {
	set, w := r.find(key)
	if w < 0 {
		r.st.Lookups++
		return nil, false
	}
	return r.touch(set, w, 1, now), true
}

func (r *refCache) victimWay(set int) (way int, full bool) {
	ways := r.sets[set]
	for w, e := range ways {
		if !e.valid {
			return w, false
		}
	}
	v := 0
	for w, e := range ways {
		if e.stamp < ways[v].stamp {
			v = w
		}
	}
	if !ways[v].dead {
		for w, e := range ways {
			if e.dead {
				return w, true
			}
		}
	}
	return v, true
}

// genOf is the generation record the cache reports for e: zero unless it
// tracks times.
func (r *refCache) genOf(e refWay) Gen {
	if !r.times {
		return Gen{}
	}
	return e.gen
}

func (r *refCache) fill(key uint64, hint policy.InsertHint, now uint64) (nb *Block, victim Block, vgen Gen, evicted bool) {
	set := r.set(key)
	way, evicted := r.victimWay(set)
	ways := r.sets[set]
	r.st.Fills++
	if evicted {
		victim, vgen = ways[way].blk, r.genOf(ways[way])
		r.st.Evictions++
	}
	ways[way].blk = Block{Key: key}
	ways[way].valid = true
	ways[way].gen = Gen{FillTime: now}
	ways[way].dead = false
	if hint == policy.InsertDistant {
		min := ways[0].stamp
		for _, e := range ways {
			if e.stamp < min {
				min = e.stamp
			}
		}
		if min == 0 {
			for w := range ways {
				ways[w].stamp++
			}
			r.clock[set]++
			min = 1
		}
		ways[way].stamp = min - 1
	} else {
		r.clock[set]++
		ways[way].stamp = r.clock[set]
	}
	return &ways[way].blk, victim, vgen, evicted
}

func (r *refCache) invalidate(key uint64) (Block, bool) {
	set, w := r.find(key)
	if w < 0 {
		return Block{}, false
	}
	old := r.sets[set][w].blk
	r.sets[set][w] = refWay{}
	return old, true
}

// encode writes the model in the checkpoint layout EncodeState promises:
// all tags, all blocks, whether generation records follow and then those
// records, the valid and dead words, all stamps, the clocks and the
// counters.
func (r *refCache) encode(w *ckpt.Writer) { r.encodeTimes(w, r.times) }

// encodeTimes is encode with the generation records written or left out.
func (r *refCache) encodeTimes(w *ckpt.Writer, times bool) {
	var tags, stamps, live, dead []uint64
	var blocks []Block
	var gens []Gen
	for _, ways := range r.sets {
		var lv, dd uint64
		for i, e := range ways {
			tags = append(tags, e.blk.Key)
			stamps = append(stamps, e.stamp)
			blocks = append(blocks, e.blk)
			gens = append(gens, e.gen)
			if e.valid {
				lv |= 1 << uint(i)
			}
			if e.dead {
				dd |= 1 << uint(i)
			}
		}
		live, dead = append(live, lv), append(dead, dd)
	}
	w.Mark("cache:" + r.name)
	w.U64(uint64(len(r.sets)))
	w.U64(uint64(len(r.sets[0])))
	w.Binary(tags)
	w.Binary(blocks)
	w.Bool(times)
	if times {
		w.Binary(gens)
	}
	w.Binary(live)
	w.Binary(dead)
	w.Binary(stamps)
	w.Binary(r.clock)
	w.U64(r.st.Lookups)
	w.U64(r.st.Hits)
	w.U64(r.st.Fills)
	w.U64(r.st.Bypasses)
	w.U64(r.st.Evictions)
}

func encoded(t *testing.T, enc func(*ckpt.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	enc(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCacheVsReference drives a Cache and the reference model with the
// same random operation stream and requires identical hits, victims (key,
// full Block and generation record), statistics and checkpoint bytes
// throughout, across clones and checkpoint round trips, with the cache
// tracking times (bit 7 of the first byte) or not, and built tag-only (bit
// 6) or not. The model always keeps full blocks: a tag-only cache must
// return no block pointers and build every copy it hands out equal to the
// model's, until a random KeepPayload (on a clone) gives it payloads.
func FuzzCacheVsReference(f *testing.F) {
	f.Add([]byte{0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0x13, 0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9, 0xba, 0xcb, 0xdc})
	f.Add(bytes.Repeat([]byte{0x27, 0x41, 0x05, 0x8c, 0x3a, 0xd2, 0x6e, 0x19}, 24))
	f.Add(append([]byte{0x93}, bytes.Repeat([]byte{0x27, 0x41, 0x05, 0x8c, 0x3a, 0xd2, 0x6e, 0x19, 0x0a, 0x07}, 24)...))
	// One way, one key filled, then 20 runs of 16 hits: the entry's hit
	// count saturates while its generation record keeps counting.
	f.Add(append([]byte{0x8c, 0x01, 0x00}, bytes.Repeat([]byte{0xf8, 0x00}, 20)...))
	// The same through 260 single Lookups.
	f.Add(append([]byte{0x8c, 0x01, 0x00}, bytes.Repeat([]byte{0x00, 0x00}, 260)...))
	// Both again tag-only: the way's count saturates beside its tag.
	f.Add(append([]byte{0xc8, 0x01, 0x00}, bytes.Repeat([]byte{0xf8, 0x00}, 20)...))
	f.Add(append([]byte{0xc8, 0x01, 0x00}, bytes.Repeat([]byte{0x00, 0x00}, 260)...))
	// Two ways tracking times: hits, then refills of hit ways, an
	// invalidation, a checkpoint round trip, a hit run and a clone.
	f.Add([]byte{0x90, 1, 1, 0, 1, 0, 1, 0, 1, 1, 2, 0, 2, 1, 3, 0, 3, 0, 3, 1, 4, 0, 4, 4, 3,
		1, 5, 0, 5, 0x0a, 0, 1, 6, 0, 6, 0xf8, 6, 9, 0, 1, 1, 0, 1})
	// The same tag-only: a checkpoint, then an upgrade on a clone (0x89),
	// fills that set caller-owned metadata (0x21), and a second
	// checkpoint that must keep the payload on decode.
	f.Add([]byte{0xd0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 2, 0, 2, 1, 3, 0, 3, 0, 3, 1, 4, 0, 4, 4, 3,
		0x0a, 0, 0x89, 0, 0x21, 5, 0x21, 6, 0, 5, 0x0a, 0, 6, 9, 0, 5, 0x0a, 0})
	// Tag-only, four ways, saturating hit runs and invalidations.
	f.Add(append([]byte{0x4d}, bytes.Repeat([]byte{1, 3, 0xf8, 3, 0x0b, 3, 4, 3, 0x0a, 1}, 12)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		sets := []int{1, 2, 3, 4}[data[0]&3]
		ways := 1 + int(data[0]>>2)%5
		times := data[0]&0x80 != 0
		cfg := Config{Name: "ref", Sets: sets, Ways: ways, TagOnly: data[0]&0x40 != 0}
		newCache := func() *Cache {
			c := MustNew(cfg)
			if times {
				if err := c.TrackTimes(); err != nil {
					t.Fatal(err)
				}
			}
			return c
		}
		c := newCache()
		r := newRef(cfg.Name, sets, ways, times)
		// same reports whether got is what the cache must return for the
		// model's block want: nil in a tag-only cache, else an equal block.
		same := func(got, want *Block) bool {
			if c.blocks == nil {
				return got == nil
			}
			return got != nil && *got == *want
		}
		checkGens := func(i int) {
			t.Helper()
			for s, ways := range r.sets {
				for w, e := range ways {
					if got, want := c.GenAt(s, w), r.genOf(e); got != want {
						t.Fatalf("op %d: set %d way %d gen %+v, want %+v", i, s, w, got, want)
					}
				}
			}
		}
		keySpace := uint64(2*sets*ways + 3)
		var now uint64
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			key := uint64(arg) % keySpace
			now++
			switch op % 12 {
			case 0: // Lookup
				got, gok := c.Lookup(key, now)
				want, wok := r.lookup(key, now)
				if gok != wok || gok && !same(got, want) {
					t.Fatalf("op %d Lookup(%d): got %v %+v, want %v %+v", i, key, gok, got, wok, want)
				}
			case 1, 2, 3: // Fill, Install or FillVictim on a key not resident
				if _, w := r.find(key); w >= 0 {
					continue
				}
				hint := policy.InsertHint(op >> 7)
				wnb, wv, wg, wev := r.fill(key, hint, now)
				var gnb *Block
				var gv Block
				var gk uint64
				var gev bool
				switch op % 12 {
				case 1:
					gnb, gv, gev = c.Fill(key, hint, now)
					gk = gv.Key
				case 2:
					gnb = c.Install(key, hint, now)
					gev, gv, gk = wev, wv, wv.Key
				case 3:
					into := &gv
					if op&0x40 != 0 {
						into = nil
					}
					gnb, gk, gev = c.FillVictim(key, hint, now, into)
					if into == nil {
						gv = wv
					}
				}
				if gev != wev || gk != wv.Key || gv != wv || !same(gnb, wnb) {
					t.Fatalf("op %d fill(%d): got evicted=%v key %d %+v new %+v, want %v %+v new %+v",
						i, key, gev, gk, gv, gnb, wev, wv, wnb)
				}
				if gev && c.EvictedGen() != wg {
					t.Fatalf("op %d fill(%d): evicted gen %+v, want %+v", i, key, c.EvictedGen(), wg)
				}
				if op&0x20 != 0 && gnb != nil { // set caller-owned metadata on both
					gnb.Prefetched, wnb.Prefetched = true, true
					gnb.DP, wnb.DP = true, true
				}
			case 4: // Invalidate
				gb, gok := c.Invalidate(key)
				wb, wok := r.invalidate(key)
				if gok != wok || gb != wb {
					t.Fatalf("op %d Invalidate(%d): got %v %+v, want %v %+v", i, key, gok, gb, wok, wb)
				}
			case 5: // MarkDead on a way, resident or not
				way := int(op>>4) % ways
				c.MarkDead(key, way)
				if e := &r.sets[r.set(key)][way]; e.valid {
					e.dead = true
				}
			case 6: // MarkDeadKey
				set, w := r.find(key)
				if w >= 0 {
					r.sets[set][w].dead = true
				}
				if got := c.markDeadKey(key); got != (w >= 0) {
					t.Fatalf("op %d MarkDeadKey(%d) = %v", i, key, got)
				}
			case 7: // HitAt on an arbitrary slot (the guard must hold)
				set, way := r.set(key), int(op>>4)%ways
				got, gok := c.HitAt(set, way, key, now)
				e := r.sets[set][way]
				wok := e.valid && e.blk.Key == key
				if gok != wok {
					t.Fatalf("op %d HitAt(%d,%d,%d) = %v, want %v", i, set, way, key, gok, wok)
				}
				if wok {
					if want := r.touch(set, way, 1, now); !same(got, want) {
						t.Fatalf("op %d HitAt block %+v, want %+v", i, got, want)
					}
				}
			case 8: // HitRun on a resident key
				set, way, ok := c.Locate(key)
				if _, w := r.find(key); ok != (w >= 0) || ok && w != way {
					t.Fatalf("op %d Locate(%d) = %d %v, model way %d", i, key, way, ok, w)
				}
				if ok {
					k := uint64(op>>4) + 1
					got := c.HitRun(set, way, k, now)
					if want := r.touch(set, way, k, now); !same(got, want) {
						t.Fatalf("op %d HitRun block %+v, want %+v", i, got, want)
					}
				}
			case 9: // Clone, carry on with the clone, maybe upgraded
				n, err := c.Clone()
				if err != nil {
					t.Fatal(err)
				}
				if (n.blocks == nil) != (c.blocks == nil) {
					t.Fatalf("op %d: clone changed the storage mode", i)
				}
				if op&0x80 != 0 {
					n.KeepPayload()
				}
				c = n
			case 10: // checkpoint round trip into a fresh cache
				want := encoded(t, r.encode)
				got := encoded(t, c.EncodeState)
				if !bytes.Equal(got, want) {
					t.Fatalf("op %d: EncodeState bytes differ from the model's", i)
				}
				fresh := newCache()
				if err := fresh.DecodeState(ckpt.NewReader(bytes.NewReader(got))); err != nil {
					t.Fatal(err)
				}
				if times {
					// A checkpoint without the records must not restore
					// into a cache that tracks them.
					bare := encoded(t, func(w *ckpt.Writer) { r.encodeTimes(w, false) })
					if err := newCache().DecodeState(ckpt.NewReader(bytes.NewReader(bare))); err == nil {
						t.Fatalf("op %d: a checkpoint without entry times restored into a cache that tracks them", i)
					}
				}
				if again := encoded(t, fresh.EncodeState); !bytes.Equal(again, got) {
					t.Fatalf("op %d: decoded cache re-encodes differently", i)
				}
				if cfg.TagOnly && (fresh.blocks != nil) != r.needsPayload() {
					t.Fatalf("op %d: decoded cache keeps payload %v, model needs it %v",
						i, fresh.blocks != nil, r.needsPayload())
				}
				c = fresh
			case 11: // Victim preview and a bypass
				gv, gok := c.victim(key)
				set := r.set(key)
				way, full := r.victimWay(set)
				if gok != full || full && gv != r.sets[set][way].blk {
					t.Fatalf("op %d Victim(%d) = %v %+v, want %v way %d", i, key, gok, gv, full, way)
				}
				c.RecordBypass()
				r.st.Bypasses++
			}
			r.st.Misses = r.st.Lookups - r.st.Hits
			if c.Stats() != r.st {
				t.Fatalf("op %d: stats %+v, want %+v", i, c.Stats(), r.st)
			}
			checkGens(i)
		}
		if got, want := encoded(t, c.EncodeState), encoded(t, r.encode); !bytes.Equal(got, want) {
			t.Fatal("final EncodeState bytes differ from the model's")
		}
		visited := 0
		c.ForEach(func(set, way int, b *Block) {
			if e := r.sets[set][way]; !e.valid || *b != e.blk {
				t.Fatalf("ForEach(%d, %d) = %+v, model %+v", set, way, *b, e)
			}
			visited++
		})
		for _, ways := range r.sets {
			for _, e := range ways {
				if e.valid {
					visited--
				}
			}
		}
		if visited != 0 {
			t.Fatalf("ForEach visited %d more entries than the model holds", visited)
		}
	})
}

// needsPayload reports whether some entry holds more than a tag-only cache
// keeps (its key, and a hit count that implies the Accessed bit).
func (r *refCache) needsPayload() bool {
	for _, ways := range r.sets {
		for _, e := range ways {
			if e.blk != (Block{Key: e.blk.Key, Hits: e.blk.Hits, Accessed: e.blk.Hits > 0}) {
				return true
			}
		}
	}
	return false
}
