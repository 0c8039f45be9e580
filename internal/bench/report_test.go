package bench

import (
	"strings"
	"testing"
)

func TestCSVRendering(t *testing.T) {
	tb := TableResult{
		Name: "t", Columns: []SystemKey{NL, X0},
		Rows:   []string{"Fork Process"},
		Values: [][]float64{{98, 482}},
	}
	var sb strings.Builder
	WriteTableCSV(&sb, tb)
	want := "benchmark,N-L,X-0\n\"Fork Process\",98.000,482.000\n"
	if sb.String() != want {
		t.Fatalf("table csv = %q", sb.String())
	}

	fig := FigureResult{
		Benchmarks: []string{"dbench"},
		Systems:    []SystemKey{NL, XU},
		Relative:   [][]float64{{1, 1.05}},
		Raw:        [][]float64{{2900, 3000}},
		RawUnit:    []string{"MB/s"},
	}
	sb.Reset()
	WriteFigureCSV(&sb, fig)
	if !strings.Contains(sb.String(), "\"dbench\",1.0000,1.0500,2900.00,\"MB/s\"") {
		t.Fatalf("figure csv = %q", sb.String())
	}
}
