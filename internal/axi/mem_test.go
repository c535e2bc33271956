package axi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// memBytes returns a copy of the n bytes of m at addr.
func memBytes(t *testing.T, m *PagedMem, addr uint64, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if err := m.ReadAt(addr, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// flatMem is the reference model PagedMem is checked against: one eagerly
// allocated slice with the same range checks and error messages.
type flatMem []byte

func (m flatMem) inRange(addr uint64, n int) bool {
	return addr <= uint64(len(m)) && uint64(n) <= uint64(len(m))-addr
}

func (m flatMem) ReadAt(addr uint64, p []byte) error {
	if !m.inRange(addr, len(p)) {
		return fmt.Errorf("axi: read [%#x,%#x) out of range (size %#x)", addr, addr+uint64(len(p)), len(m))
	}
	copy(p, m[addr:])
	return nil
}

func (m flatMem) WriteAt(addr uint64, p []byte) error {
	if !m.inRange(addr, len(p)) {
		return fmt.Errorf("axi: write [%#x,%#x) out of range (size %#x)", addr, addr+uint64(len(p)), len(m))
	}
	copy(m[addr:], p)
	return nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkMemOps drives a PagedMem of the given size and the flat model with
// the same calls, decoded from ops five bytes at a time: a kind byte (read
// or write, and where the address falls), a two-byte address operand and a
// two-byte length. Addresses land inside the memory, on its last bytes, past
// its end, or near 2^64 where addr+len wraps. It fails on the first call
// whose error or data differ, then compares the whole memory.
func checkMemOps(t *testing.T, size uint64, ops []byte) {
	t.Helper()
	got, want := NewPagedMem(size), make(flatMem, size)
	if got.Size() != size {
		t.Fatalf("Size() = %d, want %d", got.Size(), size)
	}
	for i := 0; len(ops) >= 5; i, ops = i+1, ops[5:] {
		kind := ops[0]
		v := uint64(binary.LittleEndian.Uint16(ops[1:]))
		n := int(binary.LittleEndian.Uint16(ops[3:])) % (3 * pageSize)
		var addr uint64
		switch (kind >> 1) % 4 {
		case 0: // anywhere in or just past the memory
			addr = v % (size + 64)
		case 1: // ending on or just past the last byte
			addr = size - min(size, v%(2*pageSize))
			n = min(n, int(size-addr)+int(v%3))
		case 2: // page-straddling from a page boundary
			addr = (v % (size/pageSize + 1)) * pageSize
			if addr >= 8 {
				addr -= 8
			}
		default: // addr+len wraps around 2^64
			addr = ^uint64(0) - v%64
		}
		if kind&1 == 0 {
			// Stale bytes in the buffers must be overwritten, zeros too.
			gb, wb := bytes.Repeat([]byte{0xa5}, n), bytes.Repeat([]byte{0xa5}, n)
			ge, we := got.ReadAt(addr, gb), want.ReadAt(addr, wb)
			if errText(ge) != errText(we) || !bytes.Equal(gb, wb) {
				t.Fatalf("op %d: ReadAt(%#x, %d): got (%v, % x), want (%v, % x)", i, addr, n, ge, gb, we, wb)
			}
			continue
		}
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		if ge, we := got.WriteAt(addr, p), want.WriteAt(addr, p); errText(ge) != errText(we) {
			t.Fatalf("op %d: WriteAt(%#x, %d): got %v, want %v", i, addr, n, ge, we)
		}
	}
	if all := memBytes(t, got, 0, int(size)); !bytes.Equal(all, want) {
		t.Fatal("final contents differ from the flat model")
	}
}

func TestPagedMemMatchesFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []uint64{0, 1, pageSize - 1, pageSize, 3*pageSize + 123} {
		for trial := 0; trial < 20; trial++ {
			ops := make([]byte, 5*200)
			rng.Read(ops)
			checkMemOps(t, size, ops)
		}
	}
}

func TestPagedMemAllocatesOnWriteOnly(t *testing.T) {
	m := NewPagedMem(1 << 20)
	if b := memBytes(t, m, 0, 1<<20); !bytes.Equal(b, make([]byte, 1<<20)) {
		t.Fatal("a fresh memory must read as zero")
	}
	if err := m.WriteAt(pageSize-1, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	allocated := 0
	for _, pg := range m.pages {
		if pg != nil {
			allocated++
		}
	}
	if allocated != 2 {
		t.Fatalf("a read of the whole memory and one 2-byte write across a page boundary allocated %d pages, want 2", allocated)
	}
}

func FuzzPagedMem(f *testing.F) {
	f.Add(uint16(3*pageSize+123), []byte{1, 0, 0, 0, 0x20, 3, 1, 0, 5, 0, 7, 0, 0, 9, 0})
	f.Add(uint16(pageSize), []byte{0, 0xff, 0xff, 0xff, 0xff, 6, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, size uint16, ops []byte) {
		checkMemOps(t, uint64(size)%(4*pageSize), ops)
	})
}
