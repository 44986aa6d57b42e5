package arch

import (
	"testing"
	"testing/quick"
)

func TestGeometryConstants(t *testing.T) {
	if PageSize != 4096 {
		t.Errorf("PageSize = %d, want 4096", PageSize)
	}
	if BlockSize != 64 {
		t.Errorf("BlockSize = %d, want 64", BlockSize)
	}
	if BlocksPerPage != 64 {
		t.Errorf("BlocksPerPage = %d, want 64", BlocksPerPage)
	}
	if VPNBits != 36 {
		t.Errorf("VPNBits = %d, want 36", VPNBits)
	}
	if PFNBits != 39 {
		t.Errorf("PFNBits = %d, want 39", PFNBits)
	}
	if RadixLevels*RadixIndexBits != VPNBits {
		t.Errorf("radix levels %d x %d bits do not cover VPN of %d bits",
			RadixLevels, RadixIndexBits, VPNBits)
	}
}

func TestVAddrDecomposition(t *testing.T) {
	a := VAddr(0x0000_7f12_3456_789a)
	if got, want := a.Page(), VPN(0x7f1234567); got != want {
		t.Errorf("Page() = %#x, want %#x", got, want)
	}
	if got, want := a.Offset(), uint64(0x89a); got != want {
		t.Errorf("Offset() = %#x, want %#x", got, want)
	}
	if got, want := a.Block(), VAddr(0x0000_7f12_3456_7880); got != want {
		t.Errorf("Block() = %#x, want %#x", got, want)
	}
}

func TestRadixIndexCoversVPN(t *testing.T) {
	p := VPN(0xFBCDE6789)
	var rebuilt uint64
	for lvl := 0; lvl < RadixLevels; lvl++ {
		rebuilt = rebuilt<<RadixIndexBits | p.RadixIndex(lvl)
	}
	if rebuilt != uint64(p) {
		t.Errorf("radix indices rebuild %#x, want %#x", rebuilt, uint64(p))
	}
}

func TestTranslatePreservesOffset(t *testing.T) {
	va := VAddr(0x12345_6f3)
	f := PFN(0xABCDE)
	pa := Translate(f, va)
	if pa.Page() != f {
		t.Errorf("Translate frame = %#x, want %#x", pa.Page(), f)
	}
	if uint64(pa)&PageOffsetMask != va.Offset() {
		t.Errorf("Translate offset = %#x, want %#x",
			uint64(pa)&PageOffsetMask, va.Offset())
	}
}

// TestBlockIndexRange: every block-aligned address of a page is its own
// block, on that page, and its block offset bits are clear.
func TestBlockIndexRange(t *testing.T) {
	base := PAddr(0x5000_0000)
	for off := uint64(0); off < PageSize; off += BlockSize {
		pa := base + PAddr(off)
		if pa.Block() != pa || pa.Page() != base.Page() || (pa+BlockSize-1).Block() != pa {
			t.Fatalf("block at page offset %#x: Block %#x, Page %#x", off, pa.Block(), pa.Page())
		}
	}
}

// Property: page/offset decomposition is lossless for any in-range VA.
func TestVAddrRoundTripProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := VAddr(raw & ((1 << VABits) - 1))
		return a.Page().Addr()|VAddr(a.Offset()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Translate keeps the frame and the offset independent.
func TestTranslateProperty(t *testing.T) {
	f := func(rawVA, rawPFN uint64) bool {
		va := VAddr(rawVA & ((1 << VABits) - 1))
		pfn := PFN(rawPFN & ((1 << PFNBits) - 1))
		pa := Translate(pfn, va)
		return pa.Page() == pfn && uint64(pa)&PageOffsetMask == va.Offset()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a block address is always block-aligned and contains the
// original address.
func TestBlockAlignmentProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := VAddr(raw & ((1 << VABits) - 1))
		b := a.Block()
		return uint64(b)%BlockSize == 0 && b <= a && a-b < BlockSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
