package perfmodel

import (
	"testing"

	"repro/internal/topology"
)

func TestBatchQueryBytes(t *testing.T) {
	// 64 hubs, 128 owned on a 2x2 mesh: hub planes 4*8B, L planes 3*16B,
	// parents and counters 8*(64+128+3); pull gathers: row frontier 128*2
	// bits, world frontier 128*4 bits, gather scratch 16B sent + 4*16B
	// received.
	m := topology.Mesh{Rows: 2, Cols: 2}
	got := BatchQueryBytes(64, 128, m, false)
	bitmaps := int64(4*8 + 3*16)
	want := bitmaps + 8*(64+128+3) + 32 + 64 + 16 + 4*16
	if got != want {
		t.Fatalf("BatchQueryBytes = %d, want %d", got, want)
	}
	// Fault tolerance charges 4 snapshot copies of the bitmaps only.
	faulty := BatchQueryBytes(64, 128, m, true)
	if faulty != want+4*bitmaps {
		t.Fatalf("faulty BatchQueryBytes = %d", faulty)
	}
	// Word rounding: 65 bits costs two words.
	if got := BatchQueryBytes(65, 0, m, false); got != 4*16+8*(65+3) {
		t.Fatalf("rounding: %d", got)
	}
}

func TestMaxBatchQueries(t *testing.T) {
	m := topology.Mesh{Rows: 2, Cols: 4}
	per := BatchQueryBytes(1024, 4096, m, false)
	if got := MaxBatchQueries(10*per, 1024, 4096, m, false); got != 10 {
		t.Fatalf("budget for 10 admitted %d", got)
	}
	if got := MaxBatchQueries(per-1, 1024, 4096, m, false); got != 0 {
		t.Fatalf("sub-query budget admitted %d", got)
	}
	if got := MaxBatchQueries(per, 1024, 4096, m, false); got != 1 {
		t.Fatalf("exact budget admitted %d", got)
	}
	// Fault-tolerant state is bigger, so the same budget admits fewer.
	if MaxBatchQueries(10*per, 1024, 4096, m, true) >= 10 {
		t.Fatal("snapshot overhead not charged")
	}
}
