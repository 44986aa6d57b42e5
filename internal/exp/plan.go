package exp

import (
	"context"
	"errors"

	"repro/internal/trace"
)

// errAbandoned wakes the waiters of a node dropped before it was computed.
var errAbandoned = errors.New("exp: shared node abandoned")

// gridPlan is a grid's cells, its workloads and setups each in first-seen
// order and deduplicated by name, and the shared nodes the cells consume.
// RunGrid plans its grid before launching anything, and a lone Run is a
// plan of one cell.
type gridPlan struct {
	workloads []trace.Workload
	setups    []Setup
	edges     map[string]*edge // by consuming cell (workload/setup)
	traces    map[string]*edge // each cell's edge into its workload's trace
}

// edge is one cell's edge into a node of its plan, used only by the cell's
// goroutine. An oracle cell computes its pass and the baseline waits for
// it; the first of a master's consumers to reach a pool slot computes it,
// and the first reader of a trace materializes it (Runner.generator).
type edge struct {
	*node
	pass     bool // the node is a baseline pass, not a warmed master or a trace
	computes bool
	dropped  bool
}

// drop drops the cell's edge; only its first call counts, so every exit
// path may call it.
func (e *edge) drop() {
	if e != nil && !e.dropped {
		e.dropped = true
		e.node.drop(e.computes)
	}
}

// planGrid plans a grid: its cells and the nodes they share, each with its
// count of consumers. Workloads and setups are deduplicated by name, the
// first seen kept, so a union of grids may repeat a setup. A cell the
// persistent memo holds is memoized first (Runner.recall), so the nodes
// form over the cells still to compute.
//   - One baseline pass per workload, when the grid holds a plain baseline
//     and an oracle on the Table I machine (default config and topology)
//     and neither cell is memoized or in flight: the oracle's record pass
//     (§VI-A) is the plain machine's run, so the oracle computes it and
//     replays its record at once.
//     Runs with an external executor keep separate passes, since either
//     cell may run elsewhere, and so do observed runs, whose baseline
//     scope must see the plain machine.
//   - One warmed master per (workload, WarmupKey) with two or more
//     warm-path consumers: warm-shareable cells not memoized or in flight,
//     and not a baseline cell taking a pass. A lone consumer runs cold.
//   - One trace per workload, with an edge from every cell. Its first
//     reader materializes it; cells that will not read it drop their edge
//     early (Runner.lead, Runner.runLocal), so the last reader releases it.
func (r *Runner) planGrid(ctx context.Context, workloads []trace.Workload, setups []Setup) *gridPlan {
	p := &gridPlan{edges: make(map[string]*edge), traces: make(map[string]*edge)}
	seen := make(map[string]bool)
	for _, w := range workloads {
		if !seen["w/"+w.Name] {
			seen["w/"+w.Name] = true
			p.workloads = append(p.workloads, w)
		}
	}
	for _, su := range setups {
		if !seen["s/"+su.Name] {
			seen["s/"+su.Name] = true
			p.setups = append(p.setups, su)
		}
	}
	var base, oracle string
	for _, su := range p.setups {
		switch {
		case su.Config != nil || su.Topology != Topology{}:
		case su.Oracle && oracle == "":
			oracle = su.Name
		case !su.Oracle && base == "" && su.TLB == nil && su.LLC == nil && su.Prefetch == nil && su.Instrument == Instrumentation{}:
			base = su.Name
		}
	}
	pairs := base != "" && oracle != "" && r.Observer == nil && r.Executor == nil
	for _, w := range p.workloads {
		for _, su := range p.setups {
			r.recall(ctx, w, su)
		}
		if b, o := w.Name+"/"+base, w.Name+"/"+oracle; pairs && !r.results.has(b) && !r.results.has(o) {
			n := &node{edges: 2, done: make(chan struct{})}
			p.edges[b] = &edge{node: n, pass: true}
			p.edges[o] = &edge{node: n, pass: true, computes: true}
		}
		tn := &node{edges: len(p.setups), done: make(chan struct{}), release: r.releaseTrace}
		warm := make(map[string][]string) // warm-path cells by WarmupKey
		for _, su := range p.setups {
			cell := w.Name + "/" + su.Name
			p.traces[cell] = &edge{node: tn}
			if r.warmShareable(su) && !r.results.has(cell) && p.edges[cell] == nil {
				warm[su.WarmupKey] = append(warm[su.WarmupKey], cell)
			}
		}
		for _, cells := range warm {
			if len(cells) > 1 {
				m := &node{edges: len(cells), done: make(chan struct{}), release: r.releaseMaster}
				for _, cell := range cells {
					p.edges[cell] = &edge{node: m}
				}
			}
		}
	}
	if r.onPlan != nil {
		r.onPlan(p)
	}
	return p
}
