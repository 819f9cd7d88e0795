package workload

import (
	"reflect"
	"testing"

	"slim/internal/benchfile"
	"slim/internal/core"
)

// TestDriveDeterminism: the codec comparison must be a pure function of
// (name, seed) — the committed artifact's exact-match validation depends
// on it.
func TestDriveDeterminism(t *testing.T) {
	for _, name := range DriveNames {
		a, err := RunCodecRow(name, DefaultCodecSeed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunCodecRow(name, DefaultCodecSeed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs differ:\n%+v\n%+v", name, a, b)
		}
	}
}

// TestDriveStreamsIdenticalPerEncoder: the two encoders in a comparison
// must see the same ops — two drive instances with one seed emit
// byte-identical streams.
func TestDriveStreamsIdentical(t *testing.T) {
	for _, name := range DriveNames {
		d1, err := NewDrive(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		d2, _ := NewDrive(name, 7)
		for i := 0; i < d1.Steps; i++ {
			if !reflect.DeepEqual(d1.Step(i), d2.Step(i)) {
				t.Fatalf("%s: step %d differs between instances", name, i)
			}
		}
	}
}

// TestCodecSpeedup pins the ISSUE acceptance criterion: the scroll and
// re-expose workloads send at least 5x fewer payload bytes under gen-2
// than gen-1, and the cache does the work (hits dominate in steady state).
func TestCodecSpeedup(t *testing.T) {
	for _, name := range []string{"scroll", "reexpose"} {
		row, err := RunCodecRow(name, DefaultCodecSeed)
		if err != nil {
			t.Fatal(err)
		}
		if row.Gen2VsGen1 < 5 {
			t.Errorf("%s: gen2 is only %.2fx better than gen1 (want >= 5x): %+v",
				name, row.Gen2VsGen1, row)
		}
		if row.HitRatio < 0.9 {
			t.Errorf("%s: steady-state hit ratio %.2f, want >= 0.9", name, row.HitRatio)
		}
	}
}

// TestMixedDriveExercisesChurn: the mixed drive's video region must drive
// the churn classifier (some tiles degrade to CSCS) without dragging the
// cacheable regions down — hits still dominate misses.
func TestMixedDriveExercisesChurn(t *testing.T) {
	row, err := RunCodecRow("mixed", DefaultCodecSeed)
	if err != nil {
		t.Fatal(err)
	}
	if row.Tiles[core.ClassChurn.String()] == 0 {
		t.Errorf("mixed drive produced no churn tiles: %+v", row.Tiles)
	}
	if row.CacheHits <= row.CacheMisses {
		t.Errorf("mixed drive hits (%d) should exceed misses (%d)", row.CacheHits, row.CacheMisses)
	}
}

// TestCommittedBench validates the artifact committed at the repo root:
// parseable, current schema, one row per drive, and every row exactly
// reproducible at the committed seed. A codec or drive change that shifts
// any byte count fails here until BENCH_codec2.json is regenerated
// (make codec2), so the committed table never silently drifts from the
// code.
func TestCommittedBench(t *testing.T) {
	var b CodecBench
	benchfile.Committed(t, "BENCH_codec2.json", CodecBenchSchema, "make codec2", &b)
	if len(b.Rows) != len(DriveNames) {
		t.Fatalf("artifact has %d rows, want %d (regenerate with: make codec2)", len(b.Rows), len(DriveNames))
	}
	for i, name := range DriveNames {
		got := b.Rows[i]
		if got.Workload != name {
			t.Fatalf("row %d is %q, want %q", i, got.Workload, name)
		}
		want, err := RunCodecRow(name, b.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: committed row differs from a fresh run (regenerate with: make codec2)\ncommitted: %+v\nfresh:     %+v",
				name, got, want)
		}
		if got.Gen2VsGen1 < 5 && (name == "scroll" || name == "reexpose") {
			t.Errorf("%s: committed artifact shows only %.2fx gen-2 advantage, want >= 5x", name, got.Gen2VsGen1)
		}
	}
}
