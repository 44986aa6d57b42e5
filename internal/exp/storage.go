package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/pred"
)

// StorageRow is one line of the §VI-D storage comparison.
type StorageRow struct {
	// Name identifies the predictor (or component).
	Name string
	// Bits is the state overhead in bits.
	Bits uint64
}

// KB returns the overhead in kibibytes.
func (r StorageRow) KB() float64 { return float64(r.Bits) / 8 / 1024 }

// StorageReport is the §VI-D comparison.
type StorageReport struct {
	Rows []StorageRow
}

// StorageOverheads computes the §VI-D storage comparison for the paper's
// default structure sizes: a 1024-entry LLT and a 2 MB LLC (32768 blocks).
func StorageOverheads() (StorageReport, error) {
	const lltEntries = 1024
	const llcBlocks = 32768

	dp, err := core.NewDPPred(core.DefaultDPPredConfig(lltEntries))
	if err != nil {
		return StorageReport{}, err
	}
	cb, err := core.NewCBPred(core.DefaultCBPredConfig(llcBlocks))
	if err != nil {
		return StorageReport{}, err
	}
	shipTLB, err := pred.NewSHiPTLB(pred.DefaultSHiPTLBConfig(lltEntries))
	if err != nil {
		return StorageReport{}, err
	}
	shipLLC, err := pred.NewSHiPLLC(pred.DefaultSHiPLLCConfig(llcBlocks))
	if err != nil {
		return StorageReport{}, err
	}

	// AIP's storage is configuration-derived: its constructors want built
	// structures, its config does not.
	aipBits := pred.DefaultAIPTLBConfig(lltEntries).StorageBits() +
		pred.DefaultAIPLLCConfig(llcBlocks).StorageBits()

	return StorageReport{Rows: []StorageRow{
		{Name: "dpPred (LLT)", Bits: dp.StorageBits()},
		{Name: "cbPred (LLC)", Bits: cb.StorageBits()},
		{Name: "dpPred+cbPred total", Bits: dp.StorageBits() + cb.StorageBits()},
		{Name: "AIP (LLT+LLC)", Bits: aipBits},
		{Name: "SHiP (LLT+LLC)", Bits: shipTLB.StorageBits() + shipLLC.StorageBits()},
	}}, nil
}

// Format renders the report.
func (r StorageReport) Format() string {
	var b strings.Builder
	b.WriteString("Section VI-D: Storage overhead comparison (1024-entry LLT, 2 MB LLC)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s  %10.2f KB\n", row.Name, row.KB())
	}
	return b.String()
}
