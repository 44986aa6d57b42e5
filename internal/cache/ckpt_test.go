package cache

import (
	"bytes"
	"testing"

	"repro/internal/ckpt"
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
