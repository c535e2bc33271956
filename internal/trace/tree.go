package trace

// CompactTree compacts per-channel optional contents (nil = absent) into a
// dense list of the present ones, in channel index order, or nil when none
// is present. The result equals the output order of the hardware encoder's
// binary reduction tree (§3.2, Fig 5), which merges pairs of ordered runs of
// present contents level by level with logarithmic depth; a sequential
// order-preserving filter computes the same list with one allocation.
func CompactTree(contents [][]byte) [][]byte {
	n := 0
	for _, c := range contents {
		if c != nil {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([][]byte, 0, n)
	for _, c := range contents {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// ExpandTree is the decoder-side inverse: it distributes a dense content
// list back to the channels whose present bits are set, in channel index
// order (§3.4).
func ExpandTree(present []bool, dense [][]byte) ([][]byte, bool) {
	out := make([][]byte, len(present))
	k := 0
	for i, p := range present {
		if !p {
			continue
		}
		if k >= len(dense) {
			return nil, false
		}
		out[i] = dense[k]
		k++
	}
	if k != len(dense) {
		return nil, false
	}
	return out, true
}
