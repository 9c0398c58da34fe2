package graphs

import (
	"reflect"
	"testing"
)

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	want := []int{0, 1, 2, 3, 4}
	if got := BFS(g, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("BFS path = %v, want %v", got, want)
	}
	if got := BFS(g, 2); !reflect.DeepEqual(got, []int{2, 1, 0, 1, 2}) {
		t.Fatalf("BFS from middle = %v", got)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	got := BFS(g, 0)
	if !reflect.DeepEqual(got, []int{0, 1, -1, -1}) {
		t.Fatalf("BFS = %v, want [0 1 -1 -1]", got)
	}
}

func TestBFSPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BFS(-1) did not panic")
		}
	}()
	BFS(New(2), -1)
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(4, 5)
	comps := ConnectedComponents(g)
	want := [][]int{{0, 1, 2}, {3}, {4, 5}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("components = %v, want %v", comps, want)
	}
}

func TestIsConnected(t *testing.T) {
	if !IsConnected(New(0)) {
		t.Fatal("empty graph should count as connected")
	}
	if !IsConnected(Path(4)) {
		t.Fatal("path should be connected")
	}
	if IsConnected(Empty(2)) {
		t.Fatal("two isolated vertices are not connected")
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path5", Path(5), 4},
		{"cycle6", Cycle(6), 3},
		{"complete4", Complete(4), 1},
		{"disconnected", Empty(3), -1},
		{"empty", New(0), -1},
		{"singleton", New(1), 0},
	}
	for _, tc := range tests {
		if got := diameter(tc.g); got != tc.want {
			t.Errorf("%s: diameter = %d, want %d", tc.name, got, tc.want)
		}
	}
}
