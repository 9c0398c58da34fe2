package graphs

import "sort"

// BFS runs a breadth-first search from src and returns the distance (in
// edges) to every vertex; unreachable vertices get -1. It panics if src is
// out of range.
func BFS(g *Graph, src int) []int {
	if !g.validVertex(src) {
		panic("graphs: BFS source out of range")
	}
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted, ordered by smallest member.
func ConnectedComponents(g *Graph) [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, u := range g.adj[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		// Depth-first discovery order is not sorted; normalise.
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether g has at most one connected component.
func IsConnected(g *Graph) bool {
	if g.n == 0 {
		return true
	}
	dist := BFS(g, 0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// diameter returns the longest shortest path in g, or -1 if g is
// disconnected or empty. O(n·(n+m)); fine at simulation scale.
func diameter(g *Graph) int {
	if g.n == 0 {
		return -1
	}
	best := 0
	for v := 0; v < g.n; v++ {
		for _, d := range BFS(g, v) {
			if d == -1 {
				return -1
			}
			if d > best {
				best = d
			}
		}
	}
	return best
}
