package stats

import "repro/internal/cache"

// DeadSampler reproduces the §IV characterization of dead entries.
//
// Two measurements are taken, matching the paper's two views:
//
//  1. Eviction classification (Figures 2 and 4): each evicted entry is
//     classified as DOA (zero hits), mostly dead (≥1 hit but more dead
//     time than live time) or mostly live, using the fill / last-hit /
//     eviction timestamps of the entry's generation record (cache.Gen).
//
//  2. Sampled residency (Figures 1 and 3): at periodic sample points every
//     resident entry is snapshotted; "dead at sample time" — the entry
//     receives no hit between the sample and its eviction — is resolved
//     retrospectively when the entry is evicted, since deadness needs
//     future knowledge.
//
// The structure's owner must call OnEvict for every eviction and Sample at
// its chosen cadence; entries still resident at the end can be flushed
// with Finish (they resolve with their final hit counts). The structure
// must track entry times (cache.Cache.TrackTimes) from its first fill.
type DeadSampler struct {
	// eviction-time classification
	evictions  uint64
	doa        uint64
	mostlyDead uint64
	mostlyLive uint64

	// sampled residency: pending snapshots keyed by entry generation
	pending map[genKey][]uint64 // hits observed at each sample point
	samples uint64
	deadAt  uint64
	doaAt   uint64
}

// genKey identifies one residency generation of one entry: the key plus
// the fill time (unique per generation because time advances).
type genKey struct {
	key      uint64
	fillTime uint64
}

// NewDeadSampler creates an empty sampler.
func NewDeadSampler() *DeadSampler {
	return &DeadSampler{pending: make(map[genKey][]uint64)}
}

// Sample snapshots every resident entry of the structure.
func (d *DeadSampler) Sample(c *cache.Cache) {
	c.ForEach(func(set, way int, b *cache.Block) {
		g := c.GenAt(set, way)
		k := genKey{key: b.Key, fillTime: g.FillTime}
		d.pending[k] = append(d.pending[k], g.Hits)
		d.samples++
	})
}

// OnEvict classifies the evicted entry (its key and generation record)
// and resolves its pending samples. now is the eviction time in the same
// units as the record's timestamps.
func (d *DeadSampler) OnEvict(key uint64, g cache.Gen, now uint64) {
	d.evictions++
	switch {
	case g.Hits == 0:
		d.doa++
	case now-g.LastHitTime > g.LastHitTime-g.FillTime:
		d.mostlyDead++
	default:
		d.mostlyLive++
	}
	d.resolve(key, g)
}

// Finish resolves samples for entries still resident at simulation end.
// Entries whose generations never evict are graded with their final state:
// an entry with no hits after its last sample counts as dead at that
// sample. It does not add eviction classifications.
func (d *DeadSampler) Finish(c *cache.Cache) {
	c.ForEach(func(set, way int, b *cache.Block) {
		d.resolve(b.Key, c.GenAt(set, way))
	})
}

func (d *DeadSampler) resolve(key uint64, g cache.Gen) {
	k := genKey{key: key, fillTime: g.FillTime}
	recs, ok := d.pending[k]
	if !ok {
		return
	}
	delete(d.pending, k)
	for _, hitsAtSample := range recs {
		if g.Hits == hitsAtSample {
			d.deadAt++
			if g.Hits == 0 {
				d.doaAt++
			}
		}
	}
}

// DeadResult is the sampler's aggregate view.
type DeadResult struct {
	// Eviction-time classification (Figures 2/4).
	Evictions  uint64
	DOA        uint64
	MostlyDead uint64
	MostlyLive uint64

	// Sampled residency (Figures 1/3).
	Samples      uint64
	DeadAtSample uint64
	DOAAtSample  uint64
}

// DOAFrac is the fraction of evictions that were dead on arrival.
func (r DeadResult) DOAFrac() float64 { return frac(r.DOA, r.Evictions) }

// MostlyDeadFrac is the fraction of evictions with more dead than live time
// but at least one hit.
func (r DeadResult) MostlyDeadFrac() float64 { return frac(r.MostlyDead, r.Evictions) }

// DeadFrac is the fraction of evictions that were dead (DOA or mostly
// dead) — the total stacked-bar height of Figures 2/4.
func (r DeadResult) DeadFrac() float64 { return frac(r.DOA+r.MostlyDead, r.Evictions) }

// SampledDeadFrac is the fraction of sampled resident entries that were
// dead at sample time (Figures 1/3 total height).
func (r DeadResult) SampledDeadFrac() float64 { return frac(r.DeadAtSample, r.Samples) }

// SampledDOAFrac is the fraction of sampled resident entries belonging to
// DOA generations (the lower stack of Figures 1/3).
func (r DeadResult) SampledDOAFrac() float64 { return frac(r.DOAAtSample, r.Samples) }

func frac(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Result returns the current tallies.
func (d *DeadSampler) Result() DeadResult {
	return DeadResult{
		Evictions:    d.evictions,
		DOA:          d.doa,
		MostlyDead:   d.mostlyDead,
		MostlyLive:   d.mostlyLive,
		Samples:      d.samples,
		DeadAtSample: d.deadAt,
		DOAAtSample:  d.doaAt,
	}
}
