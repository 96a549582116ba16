package structure

import (
	"bufio"
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"qframan/internal/geom"
)

// TestReadSystemAllocationCeiling: the scanner's buffer grows to the longest
// line instead of starting at the 1 MiB cap, so decoding a 24-atom text (a
// 2×2×2 water box, about 1.3 kB) allocates a few kB, not the cap (≈ 1 MiB per
// call when every ReadSystem zeroed a 1 MiB buffer).
func TestReadSystemAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var text bytes.Buffer
	if err := BuildWaterBox(2, 2, 2, geom.Vec3{}).WriteText(&text); err != nil {
		t.Fatal(err)
	}
	read := func() {
		sys, err := ReadSystem(bytes.NewReader(text.Bytes()))
		if err != nil || sys.NumAtoms() != 24 {
			t.Fatalf("ReadSystem: %v", err)
		}
	}
	read()
	const runs, ceiling = 100, 16 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("ReadSystem of a %d-byte, 24-atom text allocates %d B", text.Len(), perCall)
	if perCall > ceiling {
		t.Errorf("ReadSystem of a 24-atom text allocates %d B per call, want ≤ %d", perCall, ceiling)
	}
}

// TestReadSystemLineCap: the buffer starts small but keeps its cap, so a line
// longer than 1 MiB still fails with bufio.ErrTooLong.
func TestReadSystemLineCap(t *testing.T) {
	line := "# " + strings.Repeat("x", maxLine) + "\n"
	if _, err := ReadSystem(strings.NewReader(line)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a %d-byte line: got %v, want bufio.ErrTooLong", len(line), err)
	}
}
