package intmath

// Fill64 sets every element of dst to v. The Go compiler only recognises
// zero-fills as memclr, so the all-ones sentinel wipe of the edge
// selection's per-seed min table (core.LocalMinEdgesSel) would otherwise
// run one store per iteration with full loop overhead; the 8-way unroll
// keeps the wipe at memory bandwidth without assembly.
func Fill64(dst []uint64, v uint64) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		d := dst[i : i+8 : i+8]
		d[0] = v
		d[1] = v
		d[2] = v
		d[3] = v
		d[4] = v
		d[5] = v
		d[6] = v
		d[7] = v
	}
	for ; i < len(dst); i++ {
		dst[i] = v
	}
}
