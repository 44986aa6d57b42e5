package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/pred"
	"repro/internal/stats"
	"repro/internal/xhash"
)

// DPPredConfig parameterizes the dead-page predictor. The zero value is not
// usable; start from DefaultDPPredConfig.
type DPPredConfig struct {
	// PCBits is the width of the PC hash indexing pHIST's first
	// dimension and stored in each LLT entry (6 by default, §V-A).
	PCBits uint
	// VPNBits is the width of the VPN hash indexing pHIST's second
	// dimension (4 by default). Setting VPNBits to 0 degenerates to a
	// one-dimensional PC-only table (the "10 bit PC" point of Fig. 11b
	// is PCBits=10, VPNBits=0).
	VPNBits uint
	// CounterBits is the width of pHIST's saturating counters (3).
	CounterBits uint
	// Threshold is the confidence above which a fill is predicted DOA
	// (counter > Threshold; 6 by default).
	Threshold uint8
	// ShadowEntries sizes the shadow table (2 by default; 0 gives the
	// dpPred−SH variant of Table VI).
	ShadowEntries int
	// LLTEntries is the guarded TLB's capacity, used for storage
	// accounting of the per-entry metadata (PC hash + Accessed bit).
	LLTEntries int
}

// DefaultDPPredConfig is the paper's default dpPred: 6-bit PC hash × 4-bit
// VPN hash (a 1024-entry pHIST), 3-bit counters, threshold 6, and a 2-entry
// shadow table.
func DefaultDPPredConfig(lltEntries int) DPPredConfig {
	return DPPredConfig{
		PCBits:        6,
		VPNBits:       4,
		CounterBits:   3,
		Threshold:     6,
		ShadowEntries: 2,
		LLTEntries:    lltEntries,
	}
}

// DPPredStats counts dpPred activity.
type DPPredStats struct {
	// Predictions is the number of fills predicted DOA (bypassed).
	Predictions uint64
	// ShadowHits is the number of LLT misses served by the shadow table
	// — each one is a detected misprediction.
	ShadowHits uint64
	// ColumnFlushes counts negative-feedback flushes of pHIST columns.
	ColumnFlushes uint64
	// Increments and Clears count eviction-time training events.
	Increments uint64
	Clears     uint64
}

// DPPred is the dead-page predictor (§V-A).
type DPPred struct {
	cfg    DPPredConfig
	phist  [][]uint8 // [pcHash][vpnHash]
	ctrMax uint8
	shadow *shadowTable

	// tr, when set, receives pHIST column-flush events (the one dpPred
	// hook point the simulator cannot observe from outside).
	tr *obs.Tracer

	// One-entry hash memos: an LLT miss consults the predictor several
	// times with the same PC/VPN (OnMiss, then OnFill, then often an
	// eviction for a neighbouring page), so the last hash is reused
	// instead of re-folding. Zero values are self-consistent: Fold(0)=0.
	lastPC      uint64
	lastPCHash  uint16
	lastVPN     uint64
	lastVPNHash int

	stats DPPredStats
}

// NewDPPred builds the predictor.
func NewDPPred(cfg DPPredConfig) (*DPPred, error) {
	if cfg.PCBits == 0 || cfg.PCBits > 16 {
		return nil, fmt.Errorf("dppred: PCBits must be in [1,16], got %d", cfg.PCBits)
	}
	if cfg.VPNBits > 16 {
		return nil, fmt.Errorf("dppred: VPNBits must be ≤ 16, got %d", cfg.VPNBits)
	}
	if cfg.CounterBits == 0 || cfg.CounterBits > 8 {
		return nil, fmt.Errorf("dppred: CounterBits must be in [1,8], got %d", cfg.CounterBits)
	}
	max := uint8(1<<cfg.CounterBits - 1)
	if cfg.Threshold >= max {
		return nil, fmt.Errorf("dppred: threshold %d unreachable with %d-bit counters",
			cfg.Threshold, cfg.CounterBits)
	}
	if cfg.ShadowEntries < 0 {
		return nil, fmt.Errorf("dppred: negative shadow table size")
	}
	rows := 1 << cfg.PCBits
	cols := 1 << cfg.VPNBits
	p := &DPPred{cfg: cfg, ctrMax: max, shadow: newShadowTable(cfg.ShadowEntries)}
	p.phist = make([][]uint8, rows)
	backing := make([]uint8, rows*cols)
	for r := range p.phist {
		p.phist[r] = backing[r*cols : (r+1)*cols]
	}
	return p, nil
}

// Name implements pred.TLBPredictor.
func (p *DPPred) Name() string { return "dpPred" }

func (p *DPPred) pcHash(pc uint64) uint16 {
	if pc == p.lastPC {
		return p.lastPCHash
	}
	h := uint16(xhash.PC(pc, p.cfg.PCBits))
	p.lastPC, p.lastPCHash = pc, h
	return h
}

func (p *DPPred) vpnHash(vpn arch.VPN) int {
	if p.cfg.VPNBits == 0 {
		return 0
	}
	if uint64(vpn) == p.lastVPN {
		return p.lastVPNHash
	}
	h := int(xhash.VPN(uint64(vpn), p.cfg.VPNBits))
	p.lastVPN, p.lastVPNHash = uint64(vpn), h
	return h
}

// OnHit implements pred.TLBPredictor. The Accessed bit is maintained by the
// TLB itself; dpPred has no hit-path work (§V-C: hit latency unaffected).
func (p *DPPred) OnHit(*cache.Block) {}

// OnMiss implements pred.TLBPredictor: the Fig. 6a miss path. A shadow-table
// hit returns the parked translation (victim-buffer behaviour) and flushes
// the pHIST column for the VPN's hash as negative feedback.
func (p *DPPred) OnMiss(vpn arch.VPN, _ uint64) (arch.PFN, bool) {
	pfn, ok := p.shadow.Lookup(vpn)
	if !ok {
		return 0, false
	}
	p.stats.ShadowHits++
	p.flushColumn(p.vpnHash(vpn))
	return pfn, true
}

func (p *DPPred) flushColumn(col int) {
	p.stats.ColumnFlushes++
	if p.tr != nil {
		p.tr.Emit(obs.Event{Kind: obs.EvPHISTFlush, Key: uint64(col)})
	}
	for r := range p.phist {
		p.phist[r][col] = 0
	}
}

// OnFill implements pred.TLBPredictor: the Fig. 6b fill path. The PC hash
// comes from the LLT's MSHR (the simulator passes the PC that triggered the
// miss). A counter above the threshold predicts DOA: the translation
// bypasses the LLT and parks in the shadow table, and the simulator
// announces the frame to the LLC side.
func (p *DPPred) OnFill(vpn arch.VPN, pfn arch.PFN, pc uint64) pred.Decision {
	h := p.pcHash(pc)
	if p.phist[h][p.vpnHash(vpn)] > p.cfg.Threshold {
		p.stats.Predictions++
		p.shadow.Insert(vpn, pfn)
		return pred.Decision{Bypass: true, PredictDOA: true, PCHash: h}
	}
	return pred.Decision{PCHash: h}
}

// OnEvict implements pred.TLBPredictor: the Fig. 6c eviction path. A set
// Accessed bit proves the entry was not DOA and clears the counter;
// otherwise the counter increments (saturating).
func (p *DPPred) OnEvict(b cache.Block) {
	ctr := &p.phist[int(b.PCHash)&(len(p.phist)-1)][p.vpnHash(arch.VPN(b.Key))]
	if b.Accessed {
		p.stats.Clears++
		*ctr = 0
		return
	}
	p.stats.Increments++
	if *ctr < p.ctrMax {
		*ctr++
	}
}

// StorageBits implements pred.TLBPredictor, reproducing the §V-D breakdown:
// per-entry metadata (PC hash + Accessed bit), the pHIST counters, and the
// shadow table (~13 bytes per entry: VPN tag + PFN + valid).
func (p *DPPred) StorageBits() uint64 {
	perEntry := uint64(p.cfg.PCBits+1) * uint64(p.cfg.LLTEntries)
	phist := uint64(1) << (p.cfg.PCBits + p.cfg.VPNBits) * uint64(p.cfg.CounterBits)
	shadow := uint64(p.shadow.Size()) * shadowEntryBits
	return perEntry + phist + shadow
}

// shadowEntryBits is the storage of one shadow-table slot: a 36-bit VPN, a
// 39-bit PFN, remaining translation metadata and a valid bit — the "around
// 13 bytes" of §V-D.
const shadowEntryBits = 13 * 8

// Stats returns a snapshot of predictor activity.
func (p *DPPred) Stats() DPPredStats { return p.stats }

// Counter exposes a pHIST counter value (for tests and introspection).
func (p *DPPred) Counter(pcHash uint16, vpn arch.VPN) uint8 {
	return p.phist[int(pcHash)&(len(p.phist)-1)][p.vpnHash(vpn)]
}

// AttachTracer implements obs.TraceAttacher: pHIST column flushes are
// emitted through t (nil detaches).
func (p *DPPred) AttachTracer(t *obs.Tracer) { p.tr = t }

// RegisterMetrics implements obs.MetricSource, publishing the predictor's
// activity counters as probes.
func (p *DPPred) RegisterMetrics(r *obs.Registry) {
	r.RegisterProbe("dppred.predictions", func() float64 { return float64(p.stats.Predictions) })
	r.RegisterProbe("dppred.shadow_hits", func() float64 { return float64(p.stats.ShadowHits) })
	r.RegisterProbe("dppred.column_flushes", func() float64 { return float64(p.stats.ColumnFlushes) })
	r.RegisterProbe("dppred.increments", func() float64 { return float64(p.stats.Increments) })
	r.RegisterProbe("dppred.clears", func() float64 { return float64(p.stats.Clears) })
	// Each shadow hit is a bypassed translation re-requested — a premature
	// prediction the predictor caught itself.
	r.RegisterProbe("dppred.premature_detected_rate", func() float64 {
		if p.stats.Predictions == 0 {
			return 0
		}
		return float64(p.stats.ShadowHits) / float64(p.stats.Predictions)
	})
}

// PredictionQuality implements obs.QualitySource: predictions issued and
// the subset the shadow table already proved premature.
func (p *DPPred) PredictionQuality() (predictions, detectedPremature uint64) {
	return p.stats.Predictions, p.stats.ShadowHits
}

// CounterHistogram implements obs.CounterHistogrammer: bucket v counts the
// pHIST counters currently holding v.
func (p *DPPred) CounterHistogram() []uint64 {
	return stats.Histogram8(p.ctrMax, p.phist...)
}

var (
	_ pred.TLBPredictor       = (*DPPred)(nil)
	_ obs.TraceAttacher       = (*DPPred)(nil)
	_ obs.MetricSource        = (*DPPred)(nil)
	_ obs.CounterHistogrammer = (*DPPred)(nil)
	_ obs.QualitySource       = (*DPPred)(nil)
)
