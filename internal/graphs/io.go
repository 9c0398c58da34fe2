package graphs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// writeEdgeList writes g in a simple text format:
//
//	n <vertexCount>
//	<u> <v>        (one line per edge, u < v)
//
// Lines beginning with '#' are comments on read.
func writeEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e[0], e[1]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readEdgeList parses the format produced by writeEdgeList.
func readEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if g == nil {
			if len(fields) != 2 || fields[0] != "n" {
				return nil, fmt.Errorf("graphs: line %d: expected header \"n <count>\", got %q", line, text)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graphs: line %d: bad vertex count %q", line, fields[1])
			}
			g = New(n)
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graphs: line %d: expected \"u v\", got %q", line, text)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("graphs: line %d: non-integer edge %q", line, text)
		}
		if err := g.AddEdge(u, v); err != nil {
			return nil, fmt.Errorf("graphs: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graphs: empty input")
	}
	return g, nil
}

// WriteDOT writes g in Graphviz DOT format. The optional label function
// supplies per-vertex labels; pass nil for numeric labels.
func WriteDOT(w io.Writer, g *Graph, name string, label func(v int) string) error {
	bw := bufio.NewWriter(w)
	if name == "" {
		name = "G"
	}
	if _, err := fmt.Fprintf(bw, "graph %s {\n", name); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if label != nil {
			if _, err := fmt.Fprintf(bw, "  %d [label=%q];\n", v, label(v)); err != nil {
				return err
			}
		} else if g.Degree(v) == 0 {
			// Isolated vertices must be declared or DOT drops them.
			if _, err := fmt.Fprintf(bw, "  %d;\n", v); err != nil {
				return err
			}
		}
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "  %d -- %d;\n", e[0], e[1]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}
