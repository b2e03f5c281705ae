package geom

import "sort"

// ConvexHullIndices returns the indices of the points on the convex hull of
// pts, in counter-clockwise order starting from the lexicographically
// smallest point. Collinear points on the hull boundary are excluded
// (strict hull). Degenerate inputs (fewer than 3 distinct points, or all
// collinear) return all distinct extreme indices. Of coincident points,
// only the lowest index can be on the hull.
//
// The paper builds the "edge of networks" for the interest area with "the
// hull algorithm"; this is that algorithm (Andrew's monotone chain,
// O(n log n)).
func ConvexHullIndices(pts []Point) []int {
	n := len(pts)
	if n == 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]], pts[idx[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return idx[a] < idx[b]
	})
	// Deduplicate coincident points so they cannot break the turn test,
	// keeping the lowest index of each.
	uniq := idx[:0]
	for _, i := range idx {
		if len(uniq) == 0 || pts[uniq[len(uniq)-1]] != pts[i] {
			uniq = append(uniq, i)
		}
	}
	idx = uniq
	if len(idx) < 3 {
		out := make([]int, len(idx))
		copy(out, idx)
		return out
	}

	build := func(order []int) []int {
		var chain []int
		for _, i := range order {
			for len(chain) >= 2 &&
				Orient(pts[chain[len(chain)-2]], pts[chain[len(chain)-1]], pts[i]) != CounterClockwise {
				chain = chain[:len(chain)-1]
			}
			chain = append(chain, i)
		}
		return chain
	}

	lower := build(idx)
	rev := make([]int, len(idx))
	for i, v := range idx {
		rev[len(idx)-1-i] = v
	}
	upper := build(rev)

	// Concatenate, dropping the duplicated endpoints.
	hull := make([]int, 0, len(lower)+len(upper)-2)
	hull = append(hull, lower[:len(lower)-1]...)
	hull = append(hull, upper[:len(upper)-1]...)
	return hull
}
