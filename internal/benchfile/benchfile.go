// Package benchfile is the one reader and writer of the committed
// BENCH_*.json artifacts at the repository root: `slimbench hotpath|
// netqual|capacity|codec2` regenerate them through Write, and each owning
// package's TestCommittedBench loads its artifact through Committed before
// holding the contents to its own acceptance checks.
package benchfile

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"slim/internal/obs"
)

// Write writes doc to path as indented JSON.
func Write(path string, doc any) error {
	return obs.WriteFile(path, func(w io.Writer) error { return obs.WriteJSON(w, doc) })
}

// Committed decodes the artifact called name at the repository root into
// doc. A checkout without the artifact skips the test; one that does not
// parse, or whose "schema" field is not schema, fails it with the make
// target that regenerates the file.
func Committed(t testing.TB, name, schema, regen string, doc any) {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		if parent := filepath.Dir(dir); parent != dir {
			dir = parent
			continue
		}
		t.Fatalf("no go.mod above the test directory")
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Skipf("no committed artifact: %v", err)
	}
	var envelope struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &envelope); err != nil {
		t.Fatalf("%s: %v (regenerate with: %s)", name, err, regen)
	}
	if envelope.Schema != schema {
		t.Fatalf("%s: schema %q, want %q (regenerate with: %s)", name, envelope.Schema, schema, regen)
	}
	if err := json.Unmarshal(data, doc); err != nil {
		t.Fatalf("%s: %v (regenerate with: %s)", name, err, regen)
	}
}
