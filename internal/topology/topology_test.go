package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewSunwayConstants(t *testing.T) {
	m := NewSunway(103912)
	if m.SupernodeSize != 256 {
		t.Fatalf("supernode size %d", m.SupernodeSize)
	}
	if m.Oversubscription != 8 {
		t.Fatalf("oversubscription %g", m.Oversubscription)
	}
	if got := m.Supernodes(); got != (103912+255)/256 {
		t.Fatalf("supernodes = %d", got)
	}
}

func TestSupernodeMembership(t *testing.T) {
	m := NewSunway(1024)
	if !m.SameSupernode(0, 255) {
		t.Fatal("0 and 255 should share a supernode")
	}
	if m.SameSupernode(255, 256) {
		t.Fatal("255 and 256 should not share a supernode")
	}
	if m.Supernode(512) != 2 {
		t.Fatalf("Supernode(512) = %d", m.Supernode(512))
	}
}

func TestCrossBandwidthTaper(t *testing.T) {
	m := NewSunway(512)
	if got, want := m.CrossBandwidth(), m.NICBandwidth/8; math.Abs(got-want) > 1 {
		t.Fatalf("cross bandwidth %g, want %g", got, want)
	}
}

func TestTrafficTimeMonotone(t *testing.T) {
	m := NewSunway(512)
	base := m.Time(Traffic{IntraBytesPerNode: 1e6, InterBytesPerNode: 1e6, Messages: 2})
	moreInter := m.Time(Traffic{IntraBytesPerNode: 1e6, InterBytesPerNode: 2e6, Messages: 2})
	if moreInter <= base {
		t.Fatal("more inter-supernode bytes must cost more")
	}
	// Inter-supernode bytes cost 8x intra bytes.
	intraOnly := m.Time(Traffic{IntraBytesPerNode: 8e6})
	interOnly := m.Time(Traffic{InterBytesPerNode: 1e6})
	if math.Abs(intraOnly-interOnly) > 1e-12 {
		t.Fatalf("8MB intra (%g) should equal 1MB inter (%g)", intraOnly, interOnly)
	}
}

func TestTimeIncludesLatency(t *testing.T) {
	m := NewSunway(512)
	t0 := m.Time(Traffic{Messages: 0})
	t10 := m.Time(Traffic{Messages: 10})
	if diff := t10 - t0; math.Abs(diff-10*m.LinkLatency) > 1e-15 {
		t.Fatalf("latency component %g, want %g", diff, 10*m.LinkLatency)
	}
}

func TestMeshLayout(t *testing.T) {
	m := Mesh{Rows: 4, Cols: 8}
	if err := m.Validate(32); err != nil {
		t.Fatal(err)
	}
	if m.RowOf(17) != 2 || m.ColOf(17) != 1 {
		t.Fatalf("rank 17 at (%d,%d), want (2,1)", m.RowOf(17), m.ColOf(17))
	}
	if m.RankAt(2, 1) != 17 {
		t.Fatalf("RankAt(2,1) = %d", m.RankAt(2, 1))
	}
	if err := m.Validate(33); err == nil {
		t.Fatal("Validate should reject wrong size")
	}
}

func TestMeshRoundTripProperty(t *testing.T) {
	f := func(rowsRaw, colsRaw uint8, rankRaw uint16) bool {
		m := Mesh{Rows: int(rowsRaw%16) + 1, Cols: int(colsRaw%16) + 1}
		rank := int(rankRaw) % m.Size()
		return m.RankAt(m.RowOf(rank), m.ColOf(rank)) == rank
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSquarestMesh(t *testing.T) {
	cases := []struct{ n, r, c int }{
		{1, 1, 1}, {4, 2, 2}, {12, 3, 4}, {16, 4, 4}, {64, 8, 8}, {7, 1, 7}, {256, 16, 16},
	}
	for _, cse := range cases {
		m := SquarestMesh(cse.n)
		if m.Rows != cse.r || m.Cols != cse.c {
			t.Errorf("SquarestMesh(%d) = %dx%d, want %dx%d", cse.n, m.Rows, m.Cols, cse.r, cse.c)
		}
	}
}

func TestRowsMapToSupernodes(t *testing.T) {
	// The paper maps mesh rows to supernodes: with 256-wide rows every row
	// must live inside one supernode.
	mach := NewSunway(1024)
	mesh := Mesh{Rows: 4, Cols: 256}
	for row := 0; row < mesh.Rows; row++ {
		first := mesh.RankAt(row, 0)
		last := mesh.RankAt(row, mesh.Cols-1)
		if !mach.SameSupernode(first, last) {
			t.Fatalf("row %d spans supernodes", row)
		}
	}
}
