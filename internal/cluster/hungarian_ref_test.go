package cluster

import "math"

// refMaxAssignment is the historical allocating Hungarian solver, kept
// verbatim as the reference oracle for Assigner (the way the graph
// package keeps its old matcher in vf2_ref_test.go). Assigner must return
// the same assignment and the same total bits on every input: occurrence
// similarity feeds both into the merge order, so any drift in tie-breaking
// or summation order would change the labeled output.
func refMaxAssignment(s [][]float64) (assign []int, total float64) {
	n := len(s)
	if n == 0 {
		return nil, 0
	}
	// Convert to min-cost with padding; classic potentials formulation.
	const inf = math.MaxFloat64 / 4
	a := make([][]float64, n+1)
	for i := 0; i <= n; i++ {
		a[i] = make([]float64, n+1)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			a[i][j] = -s[i-1][j-1]
		}
	}
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j] = row matched to column j
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0, delta, j1 := p[j0], inf, 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := a[i0][j] - u[i0] - v[j]
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
	assign = make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
		}
	}
	for i := 0; i < n; i++ {
		total += s[i][assign[i]]
	}
	return assign, total
}
