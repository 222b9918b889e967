package experiments

import (
	"strings"
	"testing"
)

// Small sizes keep these fast; they verify each experiment runs end to end
// and produces the structural claims the paper makes.

func TestTable1(t *testing.T) {
	rep, err := Table1(12, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) < 5 {
		t.Fatalf("too few lines: %v", rep.Lines)
	}
	joined := strings.Join(rep.Lines, "\n")
	for _, want := range []string{"vanilla 1D (no delegation)", "1D + heavy delegates", "2D (|L|=0)", "degree-aware 1.5D"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing row %q in:\n%s", want, joined)
		}
	}
}

func TestFig2(t *testing.T) {
	rep := Fig2(12)
	if len(rep.Lines) < 6 {
		t.Fatalf("degree histogram too short: %v", rep.Lines)
	}
}

func TestFig5(t *testing.T) {
	rep, err := Fig5(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) < 3 {
		t.Fatalf("trace too short: %v", rep.Lines)
	}
}

func TestFig9Model(t *testing.T) {
	rep, err := Fig9(10, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Lines, "\n")
	if !strings.Contains(joined, "103912") || !strings.Contains(joined, "180792") {
		t.Fatalf("missing paper points:\n%s", joined)
	}
}

// TestFig10And11Model checks the model rows of Figures 10 and 11, and that
// the measured rows are taken at the SCALE and rank count asked for.
func TestFig10And11Model(t *testing.T) {
	for _, fig := range []func(scale, ranks int, measure bool) (Report, error){Fig10, Fig11} {
		rep, err := fig(0, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Lines) != 1+5 {
			t.Fatalf("%s rows: %d", rep.Title, len(rep.Lines))
		}
		rep, err = fig(10, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Lines) != 1+5+2 || !strings.Contains(rep.Lines[6], "at scale 10, 4 ranks") {
			t.Fatalf("%s measured rows:\n%s", rep.Title, strings.Join(rep.Lines, "\n"))
		}
	}
}

func TestFig12Grid(t *testing.T) {
	rep, err := Fig12(11, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Header + 4 E rows + best line.
	if len(rep.Lines) != 6 {
		t.Fatalf("grid lines: %d\n%s", len(rep.Lines), strings.Join(rep.Lines, "\n"))
	}
	if !strings.Contains(rep.Lines[5], "best cell") {
		t.Fatalf("no best cell: %v", rep.Lines[5])
	}
}

func TestFig13Balance(t *testing.T) {
	rep, err := Fig13(13, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) < 4 {
		t.Fatalf("balance too short: %v", rep.Lines)
	}
}

func TestFig14(t *testing.T) {
	rep := Fig14(4) // 4 MB keeps the test quick
	joined := strings.Join(rep.Lines, "\n")
	for _, want := range []string{"workers=1", "workers=6", "paper (SW26010-Pro)"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q:\n%s", want, joined)
		}
	}
}

// TestFig15 checks the three ablation rows, each with its L2L calls and
// bytes, and that forwarding leaves the edges the kernels scan where
// sub-iteration put them: it changes how messages travel, not which edges
// are walked.
func TestFig15(t *testing.T) {
	rep, err := Fig15(12, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Lines, "\n")
	edges := map[string]string{}
	for _, name := range []string{"baseline", "+sub-iter", "+forwarding"} {
		var row []string
		for _, line := range rep.Lines {
			if f := strings.Fields(strings.TrimPrefix(line, name)); strings.HasPrefix(line, name+" ") && len(f) == 8 {
				row = f
			}
		}
		if row == nil {
			t.Fatalf("no %q row with 8 columns:\n%s", name, joined)
		}
		if row[5] == "0" || row[6] == "0" {
			t.Fatalf("%s: L2L calls %s, bytes %s:\n%s", name, row[5], row[6], joined)
		}
		edges[name] = row[7]
	}
	if e := edges["+sub-iter"]; edges["+forwarding"] != e {
		t.Fatalf("edges touched differ across +sub-iter and +forwarding: %v\n%s", edges, joined)
	}
}

func TestCapacity(t *testing.T) {
	rep := Capacity()
	joined := strings.Join(rep.Lines, "\n")
	for _, want := range []string{"1D + heavy delegates", "2D", "degree-aware 1.5D", "true", "false"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q:\n%s", want, joined)
		}
	}
}

// TestByID checks that every id -list prints (the registry's) is accepted
// by ByID, that All runs the registry in order, extensions included, and
// that an unknown id errors.
func TestByID(t *testing.T) {
	reports, err := All(10, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(Registry) || reports[len(reports)-1].ID != "extensions" {
		t.Fatalf("All ran %d reports, want the %d registered ending in extensions", len(reports), len(Registry))
	}
	for i, x := range Registry {
		if reports[i].ID != x.ID {
			t.Fatalf("All's report %d is %q, want %q", i, reports[i].ID, x.ID)
		}
		rep, err := ByID(strings.ToUpper(x.ID), 10, 4, false)
		if err != nil || rep.ID != x.ID {
			t.Fatalf("ByID(%q) = %q, %v", x.ID, rep.ID, err)
		}
	}
	if _, err := ByID("nope", 10, 4, false); err == nil || !strings.Contains(err.Error(), "extensions") {
		t.Fatalf("unknown id: %v", err)
	}
}
