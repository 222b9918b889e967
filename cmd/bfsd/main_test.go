package main

import "testing"

func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"4096", 4096, true},
		{"64MiB", 64 << 20, true},
		{"256kb", 256 << 10, true},
		{" 1g ", 1 << 30, true},
		{"8589934591g", 8589934591 << 30, true}, // largest whole GiB count that fits
		{"8589934592g", 0, false},               // 2^63: would wrap negative
		{"99999999999g", 0, false},
		{"-1m", 0, false},
		{"lots", 0, false},
	} {
		got, err := parseBytes(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
