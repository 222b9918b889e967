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
	rep, err := Fig9(false)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Lines, "\n")
	if !strings.Contains(joined, "103912") || !strings.Contains(joined, "180792") {
		t.Fatalf("missing paper points:\n%s", joined)
	}
}

func TestFig10And11Model(t *testing.T) {
	r10, err := Fig10(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r10.Lines) != 1+5 {
		t.Fatalf("fig10 rows: %d", len(r10.Lines))
	}
	r11, err := Fig11(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r11.Lines) != 1+5 {
		t.Fatalf("fig11 rows: %d", len(r11.Lines))
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

func TestFig15(t *testing.T) {
	rep, err := Fig15(12, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Lines, "\n")
	for _, want := range []string{"baseline", "+sub-iter"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q:\n%s", want, joined)
		}
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

func TestByID(t *testing.T) {
	if _, err := ByID("fig2", 10, 4, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("capacity", 10, 4, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope", 10, 4, false); err == nil {
		t.Fatal("unknown id accepted")
	}
}
