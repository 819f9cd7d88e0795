package hostmon

import (
	"bytes"
	"compress/gzip"
	"testing"
	"time"

	"slim/internal/obs"
)

// protoBuf is a minimal protobuf writer for building test profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}
func (p *protoBuf) tag(num, wire int) { p.varint(uint64(num<<3 | wire)) }
func (p *protoBuf) uintField(num int, v uint64) {
	p.tag(num, 0)
	p.varint(v)
}
func (p *protoBuf) bytesField(num int, body []byte) {
	p.tag(num, 2)
	p.varint(uint64(len(body)))
	p.b = append(p.b, body...)
}
func (p *protoBuf) packedField(num int, vals ...uint64) {
	var inner protoBuf
	for _, v := range vals {
		inner.varint(v)
	}
	p.bytesField(num, inner.b)
}

// buildProfile assembles a two-function CPU profile:
//
//	sample 1: leaf slim/internal/server.(*Server).Handle, 30 ms cpu
//	sample 2: leaf runtime.mallocgc, 10 ms cpu
func buildProfile() []byte {
	var p protoBuf
	// string_table: index 0 must be "".
	p.bytesField(6, nil)
	p.bytesField(6, []byte("slim/internal/server.(*Server).Handle"))
	p.bytesField(6, []byte("runtime.mallocgc"))
	// Functions.
	var f1, f2 protoBuf
	f1.uintField(1, 1)
	f1.uintField(2, 1)
	p.bytesField(5, f1.b)
	f2.uintField(1, 2)
	f2.uintField(2, 2)
	p.bytesField(5, f2.b)
	// Locations, each with one Line pointing at its function.
	var l1, l2, line1, line2 protoBuf
	line1.uintField(1, 1)
	l1.uintField(1, 1)
	l1.bytesField(4, line1.b)
	p.bytesField(4, l1.b)
	line2.uintField(1, 2)
	l2.uintField(1, 2)
	l2.bytesField(4, line2.b)
	p.bytesField(4, l2.b)
	// Samples: [count, cpu-ns] values, leaf location first.
	var s1, s2 protoBuf
	s1.packedField(1, 1, 2) // stack: Handle ← mallocgc caller order
	s1.packedField(2, 3, 30_000_000)
	p.bytesField(2, s1.b)
	s2.packedField(1, 2)
	s2.packedField(2, 1, 10_000_000)
	p.bytesField(2, s2.b)
	p.uintField(12, 10_000_000) // period
	return p.b
}

// TestSelfTimeByPkg parses the synthetic profile, raw and gzipped.
func TestSelfTimeByPkg(t *testing.T) {
	raw := buildProfile()
	for _, gz := range []bool{false, true} {
		data := raw
		if gz {
			var buf bytes.Buffer
			w := gzip.NewWriter(&buf)
			w.Write(raw)
			w.Close()
			data = buf.Bytes()
		}
		self, err := SelfTimeByPkg(data)
		if err != nil {
			t.Fatalf("gz=%v: %v", gz, err)
		}
		if got := self["slim/internal/server"]; got != 30_000_000 {
			t.Errorf("gz=%v server self = %d, want 30ms", gz, got)
		}
		if got := self["runtime"]; got != 10_000_000 {
			t.Errorf("gz=%v runtime self = %d, want 10ms", gz, got)
		}
	}
	if _, err := SelfTimeByPkg(nil); err == nil {
		t.Error("empty profile parsed")
	}
	if _, err := SelfTimeByPkg([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Error("garbage profile parsed")
	}
}

// TestPkgOf pins the package-truncation rules.
func TestPkgOf(t *testing.T) {
	cases := map[string]string{
		"slim/internal/server.(*Server).Handle": "slim/internal/server",
		"runtime.mallocgc":                      "runtime",
		"main.main":                             "main",
		"slim/internal/obs/flight.Attribute":    "slim/internal/obs/flight",
		"crosscall":                             "crosscall",
		"(unknown)":                             "(unknown)",
	}
	for in, want := range cases {
		if got := pkgOf(in); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestProfilerStoreAndGauges drives the ring and gauge rotation with
// synthetic windows (no live profiling needed).
func TestProfilerStoreAndGauges(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainWall)
	p := NewProfiler(50*time.Millisecond, 2, 2).Instrument(reg)
	p.store(ProfileWindow{SelfByPkg: map[string]int64{
		"slim/internal/server": 30_000_000,
		"runtime":              10_000_000,
		"slim/internal/fb":     5_000_000,
	}})
	snap := reg.Snapshot()
	if got := snap.Gauges[`slim_profile_self_ms{pkg="slim/internal/server"}`]; got != 30 {
		t.Errorf("server gauge = %d, want 30", got)
	}
	if _, ok := snap.Gauges[`slim_profile_self_ms{pkg="slim/internal/fb"}`]; ok {
		t.Error("fb gauge published beyond top-N")
	}
	top := p.Top()
	if len(top) != 2 || top[0].Pkg != "slim/internal/server" || top[1].Pkg != "runtime" {
		t.Fatalf("top = %+v", top)
	}
	// A new window with a different mix rotates the published set.
	p.store(ProfileWindow{SelfByPkg: map[string]int64{
		"slim/internal/fb": 40_000_000,
		"runtime":          1_000_000,
	}})
	snap = reg.Snapshot()
	if _, ok := snap.Gauges[`slim_profile_self_ms{pkg="slim/internal/server"}`]; ok {
		t.Error("stale server gauge survived rotation")
	}
	if got := snap.Gauges[`slim_profile_self_ms{pkg="slim/internal/fb"}`]; got != 40 {
		t.Errorf("fb gauge = %d, want 40", got)
	}
	// Ring capacity 2: a third store evicts the first.
	p.store(ProfileWindow{SelfByPkg: map[string]int64{"runtime": 1}})
	if got := reg.Snapshot().Counters["slim_profile_windows_total"]; got != 3 {
		t.Errorf("window counter = %d, want 3", got)
	}
}

// TestProfilerLiveCapture smoke-tests a real runtime/pprof window: the
// capture completes, lands in the ring, and — given CPU burn — parses
// into a non-empty self-time table.
func TestProfilerLiveCapture(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainWall)
	p := NewProfiler(200*time.Millisecond, 2, 4).Instrument(reg)
	stopBurn := make(chan struct{})
	go func() { // give the profiler something to sample
		x := 0
		for {
			select {
			case <-stopBurn:
				return
			default:
				x++
			}
		}
	}()
	defer close(stopBurn)
	if !p.CaptureWindow(nil) {
		t.Fatal("capture failed (another profile active?)")
	}
	w := p.Latest()
	if len(w.Data) == 0 {
		t.Fatal("no profile data captured")
	}
	if w.SelfByPkg == nil {
		t.Skip("no samples in 200ms window (loaded CI host)")
	}
	if len(p.Top()) == 0 {
		t.Error("no top packages from a live profile")
	}
}

// TestProfilerStartClose: loop lifecycle — Start captures windows, Close
// stops promptly even mid-window, and both are restart-safe.
func TestProfilerStartClose(t *testing.T) {
	p := NewProfiler(30*time.Millisecond, 2, 4)
	p.Start()
	deadline := time.Now().Add(2 * time.Second)
	for len(p.Latest().Data) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung")
	}
	p.Close() // idempotent
	p.Start()
	p.Close()
}
