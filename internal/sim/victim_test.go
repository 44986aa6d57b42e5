package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/pred"
	"repro/internal/trace"
)

// victimRecorder is an LLC predictor that keeps its own account of every
// resident block — its fill time, whether it was hit and its DP bit — from
// the fill and hit hooks, and checks each victim OnEvict receives, and the
// LLC's record of the victim's generation, against that account. At the
// next LLC miss it also checks that the previous victims left the inner
// caches (inclusive back-invalidation).
type victimRecorder struct {
	pred.NullLLC
	p        *proc
	resident map[uint64]residentBlock
	pending  []uint64
	victims  []cache.Block
	errs     []string
}

// residentBlock is the recorder's account of one resident block.
type residentBlock struct {
	blk  cache.Block
	fill uint64
}

func newVictimRecorder() *victimRecorder {
	return &victimRecorder{resident: make(map[uint64]residentBlock)}
}

func (r *victimRecorder) Name() string { return "victim-recorder" }

func (r *victimRecorder) errorf(format string, args ...any) {
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *victimRecorder) OnFill(blockNum, _ uint64) pred.Decision {
	for _, k := range r.pending {
		if _, ok := r.p.l2.Probe(k); ok {
			r.errorf("victim %#x still in L2", k)
		}
		if _, ok := r.p.l1d.Probe(k); ok {
			r.errorf("victim %#x still in L1D", k)
		}
	}
	r.pending = r.pending[:0]
	return pred.Decision{SetDP: blockNum%3 == 0}
}

func (r *victimRecorder) OnFillDone(b *cache.Block) {
	r.resident[b.Key] = residentBlock{blk: *b, fill: r.p.stepNow}
}

func (r *victimRecorder) OnHit(b *cache.Block) {
	if want, ok := r.resident[b.Key]; ok {
		want.blk.Accessed = true
		r.resident[b.Key] = want
	}
}

func (r *victimRecorder) OnEvict(v cache.Block) {
	want, ok := r.resident[v.Key]
	fill := r.p.llc.EvictedGen().FillTime
	switch {
	case !ok:
		r.errorf("victim key %#x was never filled (victim %+v)", v.Key, v)
	case fill != want.fill || v.Accessed != want.blk.Accessed || v.DP != want.blk.DP:
		r.errorf("victim %#x: FillTime %d Accessed %v DP %v, want %d %v %v",
			v.Key, fill, v.Accessed, v.DP, want.fill, want.blk.Accessed, want.blk.DP)
	}
	delete(r.resident, v.Key)
	r.pending = append(r.pending, v.Key)
	r.victims = append(r.victims, v)
}

// evictSink collects the tracer's LLC eviction events.
type evictSink struct{ evs []obs.Event }

func (s *evictSink) WriteEvent(ev obs.Event) error {
	if ev.Kind == obs.EvLLCEvict {
		s.evs = append(s.evs, ev)
	}
	return nil
}

func (s *evictSink) Close() error { return nil }

// victimRun is one run's view of the LLC victims through every consumer.
type victimRun struct {
	rec       *victimRecorder // nil when the machine ran pred.NullLLC
	evictions uint64
	evicts    []obs.Event           // tracer
	life      obs.HistogramSnapshot // LLC lifetime histogram
	res       Result                // sampler and DOA correlation
}

// runVictims runs the cc workload on a small machine, tracking entry
// times, with the chosen LLC victim consumers attached.
func runVictims(t *testing.T, record, sampler, tracer, hist bool) victimRun {
	t.Helper()
	s := MustNew(smallConfig())
	if err := s.TrackEntryTimes(); err != nil {
		t.Fatal(err)
	}
	var out victimRun
	if record {
		out.rec = newVictimRecorder()
		out.rec.p = s.cores[0]
		s.SetLLCPredictor(out.rec)
	}
	if sampler {
		characterize(t, s, 20_000)
	}
	sink := &evictSink{}
	if tracer {
		s.AttachObserver(&obs.Observer{Tracer: obs.NewTracer(sink)})
	}
	reg := obs.NewRegistry()
	if hist {
		s.AttachMetrics(reg)
	}
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	s.StartMeasurement()
	if err := s.Run(w.New(1), 150_000); err != nil {
		t.Fatal(err)
	}
	s.Finish()
	out.evictions = s.LLC().Stats().Evictions
	out.evicts = sink.evs
	out.life = reg.Histograms()["core0.hist.llc_lifetime"]
	out.res = s.Result()
	return out
}

// TestLLCVictimConsumersSeeFullVictim: a fill copies its victim only when
// something reads it, so every reader must still get the whole block. The
// recording predictor must see exactly Evictions victims, each carrying
// the fill time, Accessed and DP bits its block had, each dropped from the
// inner caches — alone and with the sampler and tracer attached. Each
// other consumer, attached on its own behind pred.NullLLC, must see what
// it sees behind the recorder.
func TestLLCVictimConsumersSeeFullVictim(t *testing.T) {
	check := func(name string, run victimRun) {
		t.Helper()
		rec := run.rec
		if run.evictions < 1000 {
			t.Fatalf("%s: only %d LLC evictions; the run exercises nothing", name, run.evictions)
		}
		if got := uint64(len(rec.victims)); got != run.evictions {
			t.Errorf("%s: predictor saw %d victims, LLC evicted %d", name, got, run.evictions)
		}
		for _, e := range rec.errs {
			t.Errorf("%s: %s", name, e)
		}
	}
	alone := runVictims(t, true, false, false, false)
	check("recorder", alone)
	all := runVictims(t, true, true, true, true)
	check("recorder+sampler+tracer+histogram", all)
	if !reflect.DeepEqual(alone.rec.victims, all.rec.victims) {
		t.Error("attaching the sampler, tracer and histogram changed the victims")
	}
	if len(all.evicts) != len(all.rec.victims) {
		t.Fatalf("tracer saw %d evictions, predictor %d", len(all.evicts), len(all.rec.victims))
	}
	for i, ev := range all.evicts {
		if v := all.rec.victims[i]; ev.Key != v.Key || ev.Flag != v.Accessed {
			t.Fatalf("eviction %d: traced key %#x flag %v, victim %#x accessed %v", i, ev.Key, ev.Flag, v.Key, v.Accessed)
		}
	}
	if all.res.LLCDead.Evictions != all.evictions || all.life.Count != all.evictions {
		t.Errorf("sampler classified %d evictions and the histogram observed %d, LLC evicted %d",
			all.res.LLCDead.Evictions, all.life.Count, all.evictions)
	}

	if only := runVictims(t, false, true, false, false); !reflect.DeepEqual(only.res.LLCDead, all.res.LLCDead) ||
		!reflect.DeepEqual(only.res.Correlation, all.res.Correlation) {
		t.Errorf("sampler alone: %+v %+v, behind the recorder %+v %+v",
			only.res.LLCDead, only.res.Correlation, all.res.LLCDead, all.res.Correlation)
	}
	if only := runVictims(t, false, false, true, false); !reflect.DeepEqual(only.evicts, all.evicts) {
		t.Errorf("tracer alone saw %d evictions that differ from the %d behind the recorder", len(only.evicts), len(all.evicts))
	}
	if only := runVictims(t, false, false, false, true); !reflect.DeepEqual(only.life, all.life) {
		t.Errorf("lifetime histogram alone %+v, behind the recorder %+v", only.life, all.life)
	}
}
