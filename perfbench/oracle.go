package main

import "math"

// gridPairs counts the pairs (p in a, q in b) of 2-d points within Euclidean
// distance eps by brute force over a uniform grid of cell side eps: every
// pair within eps lies in the same or an adjacent cell, and each candidate
// pair is tested directly. It shares no code with the join methods, so it is
// an oracle independent of nested-loop join.
func gridPairs(a, b [][]float64, eps float64) int64 {
	type cell struct{ x, y int64 }
	at := func(p []float64) cell {
		return cell{int64(math.Floor(p[0] / eps)), int64(math.Floor(p[1] / eps))}
	}
	grid := make(map[cell][]int)
	for i, q := range b {
		c := at(q)
		grid[c] = append(grid[c], i)
	}
	var n int64
	for _, p := range a {
		c := at(p)
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for _, j := range grid[cell{c.x + dx, c.y + dy}] {
					q := b[j]
					if math.Hypot(p[0]-q[0], p[1]-q[1]) <= eps {
						n++
					}
				}
			}
		}
	}
	return n
}

// selfPairs counts the unordered pairs i < j of pts within eps, as a self
// join reports them: gridPairs counts each such pair twice plus every point
// with itself.
func selfPairs(pts [][]float64, eps float64) int64 {
	return (gridPairs(pts, pts, eps) - int64(len(pts))) / 2
}
