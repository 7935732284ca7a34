// Package cluster provides the clustering and assignment substrates used by
// LaMoFinder and the prediction baselines: optimal assignment (Hungarian
// algorithm), agglomerative hierarchical clustering, k-means over abstract
// distance spaces, and BIONJ-style neighbor joining for PRODISTIN.
package cluster

import "math"

// MaxAssignment solves the maximum-score assignment problem for the square
// score matrix s (s[i][j] = score of pairing row i with column j) and
// returns the column assigned to each row plus the total score. It is the
// allocating convenience form of Assigner.Solve.
func MaxAssignment(s [][]float64) (assign []int, total float64) {
	n := len(s)
	if n == 0 {
		return nil, 0
	}
	flat := make([]float64, 0, n*n)
	for _, row := range s {
		flat = append(flat, row[:n]...)
	}
	var as Assigner
	return as.Solve(flat, n)
}

// Assigner solves maximum-score assignment problems with the O(n^3)
// Hungarian (Kuhn–Munkres) algorithm on negated scores, keeping its working
// memory between calls so a hot loop of small problems allocates nothing
// once the buffers have grown. The zero value is ready to use; an Assigner
// is not safe for concurrent use.
type Assigner struct {
	u, v, minv []float64
	p, way     []int // p[j] = row matched to column j; way = augmenting path
	used       []bool
	assign     []int
}

// Solve solves the n×n problem whose scores are stored row-major in s
// (s[i*n+j] = score of pairing row i with column j). It returns the column
// assigned to each row and the total score; assign is owned by the
// Assigner and valid until the next Solve.
func (as *Assigner) Solve(s []float64, n int) (assign []int, total float64) {
	if n == 0 {
		return nil, 0
	}
	as.grow(n)
	// Classic potentials formulation over 1-based rows and columns with a
	// padding column 0; the cost of (i, j) is -s[(i-1)*n+(j-1)].
	const inf = math.MaxFloat64 / 4
	u, v, p, way, minv, used := as.u, as.v, as.p, as.way, as.minv, as.used
	for j := 0; j <= n; j++ {
		u[j], v[j], p[j], way[j] = 0, 0, 0, 0
	}
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0, delta, j1 := p[j0], inf, 0
			row := s[(i0-1)*n : i0*n]
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := -row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	assign = as.assign
	for i := range assign {
		assign[i] = 0
	}
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
		}
	}
	for i := 0; i < n; i++ {
		total += s[i*n+assign[i]]
	}
	return assign, total
}

// grow sizes the scratch for an n×n problem, reallocating only when n
// exceeds every size seen so far.
func (as *Assigner) grow(n int) {
	if cap(as.assign) < n {
		as.u = make([]float64, n+1)
		as.v = make([]float64, n+1)
		as.minv = make([]float64, n+1)
		as.p = make([]int, n+1)
		as.way = make([]int, n+1)
		as.used = make([]bool, n+1)
		as.assign = make([]int, n)
	}
	as.u, as.v, as.minv = as.u[:n+1], as.v[:n+1], as.minv[:n+1]
	as.p, as.way, as.used = as.p[:n+1], as.way[:n+1], as.used[:n+1]
	as.assign = as.assign[:n]
}
