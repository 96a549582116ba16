package hessian

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"qframan/internal/constants"
	"qframan/internal/fragment"
)

// The reference assembly: the COO builder that AssembleDegraded used before
// its one-pass CSR assembly, kept here as the oracle it is held against. It
// appends every contribution to a per-row list, scales each by 1/(dᵢ·dⱼ),
// then sorts each row by column and sums the duplicates. The sort is stable,
// so each entry sums its contributions in the order they were added —
// decomposition order, the order AssembleDegraded defines.

// cooBuilder accumulates COO triplets and compresses them to CSR.
type cooBuilder struct {
	n    int
	rows [][]cooEntry
}

type cooEntry struct {
	col int32
	val float64
}

func newCOOBuilder(n int) *cooBuilder {
	return &cooBuilder{n: n, rows: make([][]cooEntry, n)}
}

// Add accumulates v into (i,j).
func (b *cooBuilder) Add(i, j int, v float64) {
	b.rows[i] = append(b.rows[i], cooEntry{col: int32(j), val: v})
}

// ScaleRowsCols divides every accumulated entry (i,j) by d[i]·d[j].
func (b *cooBuilder) ScaleRowsCols(d []float64) {
	for i := range b.rows {
		for k := range b.rows[i] {
			e := &b.rows[i][k]
			e.val /= d[i] * d[e.col]
		}
	}
}

// Build merges duplicate entries in the order they were added, drops the
// ones that sum to exactly 0 and returns the CSR matrix, or ErrIndexOverflow
// when the non-zeros outgrow the int32 row pointers.
func (b *cooBuilder) Build() (*Sparse, error) {
	s := &Sparse{N: b.n, RowPtr: make([]int32, b.n+1)}
	for i, row := range b.rows {
		slices.SortStableFunc(row, func(a, c cooEntry) int { return cmp.Compare(a.col, c.col) })
		for k := 0; k < len(row); {
			j := row[k].col
			var acc float64
			for ; k < len(row) && row[k].col == j; k++ {
				acc += row[k].val
			}
			if acc != 0 {
				s.Col = append(s.Col, j)
				s.Val = append(s.Val, acc)
			}
		}
		if err := checkNNZ(len(s.Col)); err != nil {
			return nil, fmt.Errorf("%w (row %d of %d)", err, i, b.n)
		}
		s.RowPtr[i+1] = int32(len(s.Col))
	}
	return s, nil
}

// refAssemble is AssembleDegraded through the COO builder, for assemblies
// AssembleDegraded accepts.
func refAssemble(dec *fragment.Decomposition, massesAMU []float64, frags []*FragmentData, withAlpha bool, failed []int) (*Global, error) {
	allowMissing := make(map[int]bool, len(failed))
	for _, fi := range failed {
		allowMissing[fi] = true
	}
	var dropped []int
	natoms := len(massesAMU)
	n3 := 3 * natoms
	massesAU := make([]float64, natoms)
	for i, m := range massesAMU {
		massesAU[i] = m * constants.AMUToElectronMass
	}
	b := newCOOBuilder(n3)
	var dAlpha [6][]float64
	if withAlpha {
		for c := range dAlpha {
			dAlpha[c] = make([]float64, n3)
		}
	}
	var dDip [3][]float64
	for k := range dDip {
		dDip[k] = make([]float64, n3)
	}
	for fi := range dec.Fragments {
		f := &dec.Fragments[fi]
		data := frags[fi]
		if data == nil {
			if allowMissing[fi] {
				dropped = append(dropped, fi)
				continue
			}
			return nil, fmt.Errorf("hessian: missing data for fragment %d", fi)
		}
		for la, ga := range f.GlobalIdx {
			if ga < 0 {
				continue
			}
			for lb, gb := range f.GlobalIdx {
				if gb < 0 {
					continue
				}
				for da := 0; da < 3; da++ {
					for db := 0; db < 3; db++ {
						v := f.Coeff * data.Hess.At(3*la+da, 3*lb+db)
						if v != 0 {
							b.Add(3*ga+da, 3*gb+db, v)
						}
					}
				}
			}
			if withAlpha {
				for c := 0; c < 6; c++ {
					for da := 0; da < 3; da++ {
						dAlpha[c][3*ga+da] += f.Coeff * data.DAlpha[c][3*la+da]
					}
				}
			}
			if data.DDipole[0] != nil {
				for k := 0; k < 3; k++ {
					for da := 0; da < 3; da++ {
						dDip[k][3*ga+da] += f.Coeff * data.DDipole[k][3*la+da]
					}
				}
			}
		}
	}
	sqrtM := make([]float64, n3)
	for a := 0; a < natoms; a++ {
		s := sqrtAU(massesAU[a])
		sqrtM[3*a], sqrtM[3*a+1], sqrtM[3*a+2] = s, s, s
	}
	b.ScaleRowsCols(sqrtM)
	sort.Ints(dropped)
	h, err := b.Build()
	if err != nil {
		return nil, err
	}
	g := &Global{H: h, Masses: massesAU, Dropped: dropped}
	if withAlpha {
		for c := 0; c < 6; c++ {
			for i := 0; i < n3; i++ {
				dAlpha[c][i] /= sqrtM[i]
			}
		}
		g.DAlpha = dAlpha
	}
	for k := 0; k < 3; k++ {
		for i := 0; i < n3; i++ {
			dDip[k][i] /= sqrtM[i]
		}
	}
	g.DDipole = dDip
	return g, nil
}
