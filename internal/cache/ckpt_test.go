package cache

import (
	"bytes"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/policy"
)

// TestDecodeRejectsWaysPastSet: a checkpoint whose valid or dead bits name
// a way past the set's last must fail to decode; a fill into that set
// would otherwise index past it.
func TestDecodeRejectsWaysPastSet(t *testing.T) {
	c, _ := warmClone(t)
	for name, corrupt := range map[string]func(*Cache){
		"valid": func(c *Cache) { c.live[3] |= 1 << 4 },
		"dead":  func(c *Cache) { c.dead[5] |= 1 << 63 },
	} {
		bad, err := c.Clone()
		if err != nil {
			t.Fatal(err)
		}
		corrupt(bad)
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		bad.EncodeState(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		fresh := MustNew(Config{Name: "t", Sets: 8, Ways: 4})
		if err := fresh.DecodeState(ckpt.NewReader(&buf)); err == nil {
			t.Errorf("%s bits past the last way accepted", name)
		}
	}
}

// TestDecodeUpgradesTagOnly: a tag-only cache decodes a checkpoint in its
// own mode when every entry record is one it can rebuild, and keeps the
// payload when a record holds more; either way re-encoding reproduces the
// input byte for byte.
func TestDecodeUpgradesTagOnly(t *testing.T) {
	cfg := Config{Name: "t", Sets: 2, Ways: 2}
	src := MustNew(cfg)
	for _, k := range []uint64{0, 1, 2} {
		src.Fill(k, policy.InsertMRU, k)
	}
	src.Lookup(0, 3)
	// Set 0 holds key 0 (hit) and key 2; set 1 holds key 1 and an invalid
	// way (entry 3).
	for name, tc := range map[string]struct {
		edit    func(b []Block)
		payload bool
	}{
		"plain":                  {func([]Block) {}, false},
		"DP bit":                 {func(b []Block) { b[1].DP = true }, true},
		"signature":              {func(b []Block) { b[0].Sig = 7 }, true},
		"PC hash":                {func(b []Block) { b[2].PCHash = 3 }, true},
		"data":                   {func(b []Block) { b[0].Data = 9 }, true},
		"accessed without a hit": {func(b []Block) { b[1].Accessed = true }, true},
		"invalid way's payload":  {func(b []Block) { b[3].Hits = 1 }, true},
		"key other than the tag": {func(b []Block) { b[2].Key = 5 }, true},
	} {
		c, err := src.Clone()
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(c.blocks)
		in := encoded(t, c.EncodeState)
		cfg.TagOnly = true
		fresh := MustNew(cfg)
		if err := fresh.DecodeState(ckpt.NewReader(bytes.NewReader(in))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fresh.blocks != nil; got != tc.payload {
			t.Errorf("%s: decoded cache keeps payload %v, want %v", name, got, tc.payload)
		}
		if out := encoded(t, fresh.EncodeState); !bytes.Equal(out, in) {
			t.Errorf("%s: re-encoding differs from the input", name)
		}
	}
}
