package obs

import (
	"io"
	"os"
)

// WriteFile creates path and fills it through fill; a failure of either,
// or of the close, is the error. Breach dumps, bundle members, BENCH_*.json
// and slimtrace's outputs are all written through it.
func WriteFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// KeepNewest bounds an evidence directory: given its entries listed
// oldest first, it removes all but the newest keep. The flight recorder's
// dump directory and the incident engine's bundle directory both rotate
// through it.
func KeepNewest(oldestFirst []string, keep int) {
	for _, path := range oldestFirst[:max(0, len(oldestFirst)-keep)] {
		os.RemoveAll(path)
	}
}
