// Predictor registry: the arena's directory of competitors. Every
// predictor self-registers (via init in its defining package) under a
// unique name with a constructor, storage-budget accounting and capability
// flags; internal/exp derives its setup lists from registry sweeps and the
// CLIs resolve -tlb/-llc/-predictors names through Lookup, so adding a
// competitor is one registration away from appearing in the extended
// Table IV, deadsim and the differential fuzz harness.
package pred

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cache"
)

// Kind says which structure a registered predictor guards.
type Kind uint8

const (
	// KindTLB predictors guard the last-level TLB.
	KindTLB Kind = iota + 1
	// KindLLC predictors guard the last-level cache.
	KindLLC
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTLB:
		return "TLB"
	case KindLLC:
		return "LLC"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Caps are a registration's capability flags: which actuation mechanisms
// the predictor uses. The differential harness uses them to decide which
// cross-checks apply (a victimizing predictor legitimately diverges from a
// plain-LRU reference), and exp uses NeedsDOACoupling to pair cbPred-style
// predictors with their TLB-side driver.
type Caps struct {
	// Bypasses: may suppress allocations outright (needs shadow-table
	// style recovery to be safe; dpPred, cbPred).
	Bypasses bool
	// Demotes: inserts predicted-dead entries at the replacement
	// position (SHiP's LRU adaptation, SDBP, Leeway).
	Demotes bool
	// Victimizes: marks resident entries dead to steer victim selection
	// (AIP, Leeway), which makes the guarded structure's eviction order
	// diverge from plain LRU.
	Victimizes bool
	// VictimBuffer: serves misses from a small victim buffer (dpPred's
	// shadow table).
	VictimBuffer bool
	// NeedsDOACoupling: an LLC predictor driven by the TLB side's
	// DOA-page notifications (cbPred's PFQ, §V-B); it only functions
	// alongside dpPred.
	NeedsDOACoupling bool
}

// union merges two capability sets (tournament wrappers expose the union
// of their contestants' capabilities).
func (c Caps) union(o Caps) Caps {
	return Caps{
		Bypasses:         c.Bypasses || o.Bypasses,
		Demotes:          c.Demotes || o.Demotes,
		Victimizes:       c.Victimizes || o.Victimizes,
		VictimBuffer:     c.VictimBuffer || o.VictimBuffer,
		NeedsDOACoupling: c.NeedsDOACoupling || o.NeedsDOACoupling,
	}
}

// Registration describes one arena competitor.
type Registration struct {
	// Name identifies the predictor in reports, flags and goldens.
	Name string
	// Kind says which structure the constructor guards.
	Kind Kind
	// Caps are the predictor's capability flags.
	Caps Caps
	// NewTLB builds the predictor over the guarded LLT backing structure
	// (entry count, set geometry and access counters all come from it).
	// Required for KindTLB.
	NewTLB func(llt *cache.Cache) (TLBPredictor, error)
	// NewLLC is the KindLLC counterpart, over the LLC.
	NewLLC func(llc *cache.Cache) (LLCPredictor, error)
	// StorageBits reports the predictor's storage budget in bits when
	// guarding a structure of the given entry/block count, without
	// building a system — the extended Table IV normalizes columns by
	// it. Registrations with a zero budget are rejected: every real
	// competitor costs state, and a zero answer means the accounting
	// was forgotten.
	StorageBits func(entries int) uint64
}

// storageProbeEntries is the structure size Register validates budgets
// against (the Table I LLT entry count; any positive size would do).
const storageProbeEntries = 1024

// registrySet is an isolated name → Registration directory. The package
// default is what init-time registrations populate; tests exercise error
// paths against private instances.
type registrySet struct {
	mu   sync.Mutex
	regs map[string]Registration
}

// newRegistrySet returns an empty, isolated registry (for tests; the
// package-level Register/Lookup operate on the shared default).
func newRegistrySet() *registrySet { return &registrySet{} }

// Register validates and adds a registration.
func (rs *registrySet) Register(r Registration) error {
	if r.Name == "" {
		return fmt.Errorf("pred: registration with empty name")
	}
	switch r.Kind {
	case KindTLB:
		if r.NewTLB == nil {
			return fmt.Errorf("pred: %s: TLB-kind registration without a NewTLB constructor", r.Name)
		}
	case KindLLC:
		if r.NewLLC == nil {
			return fmt.Errorf("pred: %s: LLC-kind registration without a NewLLC constructor", r.Name)
		}
	default:
		return fmt.Errorf("pred: %s: invalid kind %d", r.Name, r.Kind)
	}
	if r.StorageBits == nil {
		return fmt.Errorf("pred: %s: registration without storage-budget accounting", r.Name)
	}
	if bits := r.StorageBits(storageProbeEntries); bits == 0 {
		return fmt.Errorf("pred: %s: zero-budget registration (StorageBits(%d) = 0); every competitor must account for its state", r.Name, storageProbeEntries)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, dup := rs.regs[r.Name]; dup {
		return fmt.Errorf("pred: duplicate predictor registration %q", r.Name)
	}
	if rs.regs == nil {
		rs.regs = make(map[string]Registration)
	}
	rs.regs[r.Name] = r
	return nil
}

// Lookup resolves a name, case-insensitively. Unknown names list the
// registered set so CLI typos are self-correcting.
func (rs *registrySet) Lookup(name string) (Registration, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if r, ok := rs.regs[name]; ok {
		return r, nil
	}
	for n, r := range rs.regs {
		if strings.EqualFold(n, name) {
			return r, nil
		}
	}
	names := rs.namesLocked(0)
	return Registration{}, fmt.Errorf("pred: unknown predictor %q (registered: %s)", name, strings.Join(names, ", "))
}

// Names returns every registered name, sorted; with a nonzero kind it
// filters to that kind.
func (rs *registrySet) Names(kind Kind) []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.namesLocked(kind)
}

func (rs *registrySet) namesLocked(kind Kind) []string {
	names := make([]string, 0, len(rs.regs))
	for n, r := range rs.regs {
		if kind != 0 && r.Kind != kind {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// defaultRegistry holds the init-time registrations from internal/pred
// (AIP, SHiP, SDBP, Leeway) and internal/core (dpPred, cbPred and the
// tournament duels).
var defaultRegistry = newRegistrySet()

// Register adds a predictor to the shared registry.
func Register(r Registration) error { return defaultRegistry.Register(r) }

// MustRegister is Register for init functions: a rejected registration is
// a programming error, not a runtime condition.
func MustRegister(r Registration) {
	if err := Register(r); err != nil {
		panic(err)
	}
}

// Lookup resolves a registered predictor by name (case-insensitive);
// unknown names error with the full registered set.
func Lookup(name string) (Registration, error) { return defaultRegistry.Lookup(name) }

// Names lists every registered predictor, sorted by name.
func Names() []string { return defaultRegistry.Names(0) }

// TLBNames lists the registered TLB-side predictors, sorted by name — the
// default extended-Table-IV sweep.
func TLBNames() []string { return defaultRegistry.Names(KindTLB) }
