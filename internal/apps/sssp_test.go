package apps

import (
	"encoding/binary"
	"testing"

	"vidi/internal/axi"
)

// TestLoadGraphRefusesHostileHeaders feeds the sssp kernel's edge-list
// decoder the headers a replayed trace could write to card DRAM. An edge
// count past the memory would once have asked for ~51 GB; out-of-range node
// ids indexed past the distance vector.
func TestLoadGraphRefusesHostileHeaders(t *testing.T) {
	const nodes = 128
	build := func(nEdges, src uint32, edges ...edge) *axi.PagedMem {
		blob := binary.LittleEndian.AppendUint32(nil, nEdges)
		blob = binary.LittleEndian.AppendUint32(blob, src)
		for _, e := range edges {
			blob = binary.LittleEndian.AppendUint32(blob, e.from)
			blob = binary.LittleEndian.AppendUint32(blob, e.to)
			blob = binary.LittleEndian.AppendUint32(blob, e.w)
		}
		m := axi.NewPagedMem(4 << 20)
		if err := m.WriteAt(InBase, blob); err != nil {
			t.Fatal(err)
		}
		return m
	}
	ok := []edge{{0, 1, 5}, {1, nodes - 1, 7}}
	got, src, err := loadGraph(build(2, 1, ok...), nodes)
	if err != nil || src != 1 || len(got) != 2 || got[1] != ok[1] {
		t.Fatalf("honest graph: got %v, src %d, err %v", got, src, err)
	}
	for _, c := range []struct {
		name string
		mem  *axi.PagedMem
	}{
		{"edge count past DRAM", build(^uint32(0), 0)},
		{"source out of range", build(2, nodes, ok...)},
		{"edge end out of range", build(2, 0, edge{0, 1, 5}, edge{1, nodes, 7})},
		{"edge start out of range", build(1, 0, edge{^uint32(0), 0, 1})},
	} {
		if _, _, err := loadGraph(c.mem, nodes); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// The largest count that fits is decoded, not refused.
	room := uint32((4<<20 - InBase - 8) / 12)
	if _, _, err := loadGraph(build(room, 0), nodes); err != nil {
		t.Fatalf("%d zero-filled edges: %v", room, err)
	}
	if _, _, err := loadGraph(build(room+1, 0), nodes); err == nil {
		t.Fatalf("%d edges overrun card DRAM but were accepted", room+1)
	}
}
