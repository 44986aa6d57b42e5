package exp

import (
	"errors"

	"repro/internal/trace"
)

// ErrPlanned is what a planning runner's RunGrid and Run return: the grid
// was recorded, not simulated (PlanGrid).
var ErrPlanned = errors.New("exp: grid planned, not simulated")

// gridPlan is the union of the grids a planning runner was asked for:
// workloads and setups each in first-seen order, deduplicated by name.
type gridPlan struct {
	workloads []trace.Workload
	setups    []Setup
	seen      map[string]bool
}

func (p *gridPlan) add(workloads []trace.Workload, setups []Setup) {
	for _, w := range workloads {
		if !p.seen["w/"+w.Name] {
			p.seen["w/"+w.Name] = true
			p.workloads = append(p.workloads, w)
		}
	}
	for _, su := range setups {
		if !p.seen["s/"+su.Name] {
			p.seen["s/"+su.Name] = true
			p.setups = append(p.setups, su)
		}
	}
}

// PlanGrid returns the union of the grids the experiment functions fns
// simulate, without simulating anything: each function runs, one at a
// time, on a planning runner whose RunGrid records its grid and returns
// ErrPlanned. Every experiment of this package calls RunGrid before
// anything else and aborts on its error, and all of them sweep
// trace.Workloads(), so the union's cross product is exactly their cells.
//
// Running the union as one RunGrid and then the experiments themselves
// (every cell a memo hit) lets the runner count each warm master's
// consumers across experiments — Figure 9's dpPred and Table VI's
// dpPred+acc share one — and pair one experiment's baseline cells with
// another's oracle. A function that fails before planning (an unknown
// predictor name) returns its error; one that returns without calling
// RunGrid is an error too.
func PlanGrid(p Params, fns ...func(*Runner) (Series, error)) ([]trace.Workload, []Setup, error) {
	planner := NewRunner(p)
	planner.plan = &gridPlan{seen: make(map[string]bool)}
	for _, fn := range fns {
		if _, err := fn(planner); !errors.Is(err, ErrPlanned) {
			if err == nil {
				err = errors.New("exp: experiment returned without planning a grid")
			}
			return nil, nil, err
		}
	}
	return planner.plan.workloads, planner.plan.setups, nil
}
