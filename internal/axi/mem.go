package axi

import "fmt"

// Mem is the byte-addressable backing store used by subordinate engines.
type Mem interface {
	ReadAt(addr uint64, p []byte) error
	WriteAt(addr uint64, p []byte) error
	Size() uint64
}

// pageSize is the granule in which PagedMem allocates its backing store.
const pageSize = 4 << 10

// PagedMem is a fixed-size, sparse Mem. A page is allocated on its first
// write; a byte in a page that was never written reads as zero. Building one
// costs a page table rather than its size in zeroed bytes, so the shell's
// multi-MiB DRAMs cost nothing until an application touches them.
type PagedMem struct {
	size  uint64
	pages []*[pageSize]byte
}

// NewPagedMem returns a zero-filled memory of size bytes.
func NewPagedMem(size uint64) *PagedMem {
	return &PagedMem{size: size, pages: make([]*[pageSize]byte, (size+pageSize-1)/pageSize)}
}

// inRange reports whether [addr, addr+n) lies inside the memory. It cannot
// overflow, whatever addr a trace supplies.
func (m *PagedMem) inRange(addr uint64, n int) bool {
	return addr <= m.size && uint64(n) <= m.size-addr
}

// ReadAt implements Mem. On error p is left untouched.
func (m *PagedMem) ReadAt(addr uint64, p []byte) error {
	if !m.inRange(addr, len(p)) {
		return fmt.Errorf("axi: read [%#x,%#x) out of range (size %#x)", addr, addr+uint64(len(p)), m.size)
	}
	for len(p) > 0 {
		off := addr % pageSize
		n := min(len(p), pageSize-int(off))
		if pg := m.pages[addr/pageSize]; pg != nil {
			copy(p[:n], pg[off:])
		} else {
			clear(p[:n])
		}
		p, addr = p[n:], addr+uint64(n)
	}
	return nil
}

// WriteAt implements Mem. On error nothing is written.
func (m *PagedMem) WriteAt(addr uint64, p []byte) error {
	if !m.inRange(addr, len(p)) {
		return fmt.Errorf("axi: write [%#x,%#x) out of range (size %#x)", addr, addr+uint64(len(p)), m.size)
	}
	for len(p) > 0 {
		off := addr % pageSize
		pg := m.pages[addr/pageSize]
		if pg == nil {
			pg = new([pageSize]byte)
			m.pages[addr/pageSize] = pg
		}
		n := copy(pg[off:], p)
		p, addr = p[n:], addr+uint64(n)
	}
	return nil
}

// Size implements Mem.
func (m *PagedMem) Size() uint64 { return m.size }
