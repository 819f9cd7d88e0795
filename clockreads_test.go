package slim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// simulatedPath is the source a simulated run executes between an input
// and a paint: packages, and the root files of the in-process transport.
var simulatedPath = []string{
	"internal/server", "internal/core", "internal/console", "internal/broker",
	"internal/flow", "internal/netsim", "internal/fb", "internal/protocol",
	"fabric.go", "transport.go",
}

// clockReads lists every wall-clock read on the simulated path — a use
// of time.Now, time.Since, time.Until or obs.Wall — by file and enclosing
// function, with how many that function holds and why none of them
// steers what a run sends or paints. Each is telemetry: it feeds a
// histogram, the SLO or a flight-ring stamp, and nothing reads those back
// into a decision.
var clockReads = []struct {
	file, fn string
	n        int
	why      string
}{
	{"internal/server/server.go", "Server.Handle", 2, "a drawing input's arrival and the end of its flush: the input-to-paint histograms, the SLO and the INPUT stamp"},
	{"internal/server/server.go", "Server.flush", 1, "the TX stamp, read only while the flight ring is armed"},
	{"internal/core/encoder.go", "Encoder.Encode", 2, "the encode-time histogram and the ENCODE stamp"},
	{"internal/core/encoder.go", "Encoder.Repaint", 1, "a repaint's ENCODE stamp, read only while the flight ring is armed"},
	{"internal/console/console.go", "Console.handleLocked", 2, "a display command's arrival and applied instants: the decode histograms and the RX and PAINT stamps"},
	{"internal/broker/broker.go", "Broker.attach", 2, "the fleet's reattach-latency histogram"},
}

// TestClockReadsAreListed walks the simulated path's source and fails on
// a wall-clock read clockReads does not list, or a listing that no longer
// matches the source. A simulated run must be a function of its seed
// (TestSimulationIsAFunctionOfItsSeed), so a clock read that could steer
// one is a bug; a new telemetry read is listed here with its reason.
func TestClockReadsAreListed(t *testing.T) {
	found := make(map[string][]string) // "file fn" → positions
	fset := token.NewFileSet()
	for _, root := range simulatedPath {
		files := []string{root}
		if !strings.HasSuffix(root, ".go") {
			var err error
			if files, err = filepath.Glob(filepath.Join(root, "*.go")); err != nil {
				t.Fatal(err)
			}
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			for pos, fn := range wallClockReads(fset, f) {
				key := filepath.ToSlash(path) + " " + fn
				found[key] = append(found[key], pos)
			}
		}
	}
	for _, c := range clockReads {
		key := c.file + " " + c.fn
		if got := len(found[key]); got != c.n {
			t.Errorf("%s: %d wall-clock reads in %s, listed %d (%s)", c.file, got, c.fn, c.n, strings.Join(found[key], ", "))
		}
		delete(found, key)
	}
	for key, pos := range found {
		t.Errorf("unlisted wall-clock read on the simulated path in %s at %s: list it in clockReads with why it cannot steer a run",
			strings.Fields(key)[1], strings.Join(pos, ", "))
	}
}

// wallClockReads maps the position of each wall-clock read in f to the
// function it sits in: Type.Method, a function's name, or "" at package
// level.
func wallClockReads(fset *token.FileSet, f *ast.File) map[string]string {
	local := make(map[string]string) // import path → name in this file
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[path] = name
	}
	isPkg := func(e ast.Expr, path string) bool {
		id, ok := e.(*ast.Ident)
		return ok && local[path] != "" && id.Name == local[path]
	}
	reads := make(map[string]string)
	visit := func(fn string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch name := sel.Sel.Name; {
			case isPkg(sel.X, "time") && (name == "Now" || name == "Since" || name == "Until"),
				isPkg(sel.X, "slim/internal/obs") && name == "Wall":
				reads[fset.Position(sel.Pos()).String()] = fn
			}
			return true
		})
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			visit("", d)
			continue
		}
		fn := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			typ := fd.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if idx, ok := typ.(*ast.IndexExpr); ok {
				typ = idx.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				fn = fmt.Sprintf("%s.%s", id.Name, fn)
			}
		}
		visit(fn, fd)
	}
	return reads
}
