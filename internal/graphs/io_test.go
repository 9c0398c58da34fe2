package graphs

import (
	"strings"
	"testing"

	"netbandit/internal/rng"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := Gnp(30, 0.3, rng.New(1))
	var sb strings.Builder
	if err := writeEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	got, err := readEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("round trip changed size: n %d->%d, m %d->%d", g.N(), got.N(), g.M(), got.M())
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if g.HasEdge(u, v) != got.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) changed in round trip", u, v)
			}
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# relation graph\nn 3\n\n0 1\n# middle comment\n1 2\n"
	g, err := readEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"no header", "0 1\n"},
		{"bad count", "n x\n"},
		{"negative count", "n -3\n"},
		{"bad edge", "n 3\n0 a\n"},
		{"triple field", "n 3\n0 1 2\n"},
		{"out of range", "n 2\n0 5\n"},
		{"self loop", "n 2\n1 1\n"},
		{"duplicate", "n 2\n0 1\n1 0\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := readEdgeList(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("input %q accepted", tc.in)
			}
		})
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	var sb strings.Builder
	if err := WriteDOT(&sb, g, "", nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph G {", "0 -- 1;", "2;", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOTLabels(t *testing.T) {
	g := Path(2)
	var sb strings.Builder
	err := WriteDOT(&sb, g, "SG", func(v int) string { return "s" + string(rune('1'+v)) })
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph SG {", `label="s1"`, `label="s2"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}
