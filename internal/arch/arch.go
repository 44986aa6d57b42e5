// Package arch defines the architectural constants and primitive types
// shared by every component of the simulated machine: virtual and physical
// addresses, page and cache-block geometry, and cycle accounting.
//
// The model follows the paper's baseline (Table I): x86-64-style 48-bit
// virtual addresses, 51-bit physical addresses, 4 KB pages and 64 B cache
// blocks, translated by a four-level radix page table.
package arch

// Architectural geometry. These are compile-time constants of the simulated
// ISA; structure sizes (TLB entries, cache capacity, ...) are runtime
// configuration instead.
const (
	// PageShift is log2 of the page size (4 KB pages).
	PageShift = 12
	// PageSize is the size of a virtual-memory page in bytes.
	PageSize = 1 << PageShift
	// PageOffsetMask extracts the within-page offset of an address.
	PageOffsetMask = PageSize - 1

	// BlockShift is log2 of the cache-block size (64 B blocks).
	BlockShift = 6
	// BlockSize is the size of a cache block in bytes.
	BlockSize = 1 << BlockShift
	// BlockOffsetMask extracts the within-block offset of an address.
	BlockOffsetMask = BlockSize - 1

	// BlocksPerPage is the number of cache blocks covering one page (64).
	BlocksPerPage = PageSize / BlockSize

	// VABits is the number of implemented virtual-address bits.
	VABits = 48
	// PABits is the number of implemented physical-address bits.
	PABits = 51

	// VPNBits is the number of bits in a virtual page number.
	VPNBits = VABits - PageShift
	// PFNBits is the number of bits in a physical frame number.
	PFNBits = PABits - PageShift

	// RadixLevels is the depth of the page table (PML4 → PDPT → PD → PT).
	RadixLevels = 4
	// RadixIndexBits is the number of VPN bits consumed per radix level.
	RadixIndexBits = 9
	// RadixFanout is the number of entries per page-table node (512).
	RadixFanout = 1 << RadixIndexBits
	// PTESize is the size of one page-table entry in bytes.
	PTESize = 8
)

// VAddr is a virtual byte address.
type VAddr uint64

// PAddr is a physical byte address.
type PAddr uint64

// VPN is a virtual page number (a VAddr with the page offset stripped).
type VPN uint64

// PFN is a physical frame number (a PAddr with the page offset stripped).
type PFN uint64

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Lat is a latency (duration) in core clock cycles.
type Lat uint64

// Page returns the virtual page number containing the address.
func (a VAddr) Page() VPN { return VPN(a >> PageShift) }

// Offset returns the byte offset of the address within its page.
func (a VAddr) Offset() uint64 { return uint64(a) & PageOffsetMask }

// Block returns the address of the cache block containing the address,
// i.e. the address with the block offset cleared.
func (a VAddr) Block() VAddr { return a &^ BlockOffsetMask }

// Addr returns the first byte address of the page.
func (p VPN) Addr() VAddr { return VAddr(p) << PageShift }

// RadixIndex returns the page-table index used at the given radix level.
// Level 0 is the root (PML4); level RadixLevels-1 is the leaf (PT).
func (p VPN) RadixIndex(level int) uint64 {
	shift := uint((RadixLevels - 1 - level) * RadixIndexBits)
	return (uint64(p) >> shift) & (RadixFanout - 1)
}

// Page returns the physical frame number containing the address.
func (a PAddr) Page() PFN { return PFN(a >> PageShift) }

// Block returns the address of the cache block containing the address.
func (a PAddr) Block() PAddr { return a &^ BlockOffsetMask }

// Addr returns the first byte address of the frame.
func (f PFN) Addr() PAddr { return PAddr(f) << PageShift }

// Translate combines a physical frame with the page offset of a virtual
// address, producing the physical address of the access.
func Translate(f PFN, va VAddr) PAddr {
	return f.Addr() | PAddr(va.Offset())
}
