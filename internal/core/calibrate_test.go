package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/protocol"
)

// feedLinear observes n samples of a noise-free line startup+perPixel·px.
func feedLinear(c *Calibrator, t protocol.MsgType, f protocol.CSCSFormat, startup, perPixel float64, n int) {
	for i := 0; i < n; i++ {
		px := 64 + (i%32)*64
		d := time.Duration(startup + perPixel*float64(px))
		c.Observe(t, f, px, d)
	}
}

func TestCalibratorRecoversLinearCosts(t *testing.T) {
	c := NewCalibrator(nil)
	feedLinear(c, protocol.TypeSet, 0, 9000, 400, 256)
	if c.Generation() == 0 {
		t.Fatal("no refit after 256 samples")
	}
	m := c.Model()
	if got := m.PerPixel[protocol.TypeSet]; math.Abs(got-400) > 1 {
		t.Fatalf("fitted SET per-pixel = %v ns, want ≈400", got)
	}
	if got := m.Startup[protocol.TypeSet]; math.Abs(got-9000) > 50 {
		t.Fatalf("fitted SET startup = %v ns, want ≈9000", got)
	}
	// Unfitted commands keep their Table 5 values.
	if got := m.PerPixel[protocol.TypeFill]; got != 2 {
		t.Fatalf("FILL per-pixel = %v, want table value 2", got)
	}
}

func TestCalibratorCSCSPerFormat(t *testing.T) {
	c := NewCalibrator(nil)
	feedLinear(c, protocol.TypeCSCS, protocol.CSCS5, 30000, 120, 256)
	feedLinear(c, protocol.TypeCSCS, protocol.CSCS16, 20000, 250, 256)
	m := c.Model()
	if got := m.CSCSPerPixel[protocol.CSCS5]; math.Abs(got-120) > 1 {
		t.Fatalf("CSCS5 per-pixel = %v, want ≈120", got)
	}
	if got := m.CSCSPerPixel[protocol.CSCS16]; math.Abs(got-250) > 1 {
		t.Fatalf("CSCS16 per-pixel = %v, want ≈250", got)
	}
	// Untouched formats keep the table value.
	if got := m.CSCSPerPixel[protocol.CSCS8]; got != 178 {
		t.Fatalf("CSCS8 per-pixel = %v, want 178", got)
	}
	// Startup is the mean of the fitted per-format intercepts.
	if got := m.Startup[protocol.TypeCSCS]; math.Abs(got-25000) > 100 {
		t.Fatalf("CSCS startup = %v, want ≈25000", got)
	}
}

func TestCalibratorDegenerateWindowKeepsOldFit(t *testing.T) {
	c := NewCalibrator(nil)
	feedLinear(c, protocol.TypeFill, 0, 5000, 8, 256)
	m1 := c.Model()
	// A long burst of identically-sized commands eventually makes the
	// window unfittable; the calibrator must keep the previous estimate,
	// not discard or corrupt it.
	for i := 0; i < 4*calWindow; i++ {
		c.Observe(protocol.TypeFill, 0, 100, time.Duration(5000+8*100))
	}
	gen := c.Generation() // window is now all-degenerate: no further refits
	for i := 0; i < 2*calRefitEvery; i++ {
		c.Observe(protocol.TypeFill, 0, 100, time.Duration(5000+8*100))
	}
	if c.Generation() != gen {
		t.Fatalf("degenerate refits bumped the generation %d → %d", gen, c.Generation())
	}
	m2 := c.Model()
	if math.Abs(m1.PerPixel[protocol.TypeFill]-m2.PerPixel[protocol.TypeFill]) > 0.01 {
		t.Fatalf("degenerate window changed the fit: %v → %v",
			m1.PerPixel[protocol.TypeFill], m2.PerPixel[protocol.TypeFill])
	}
}

func TestCalibratorObserveMsg(t *testing.T) {
	c := NewCalibrator(nil)
	set := &protocol.Set{Rect: protocol.Rect{W: 10, H: 10}, Pixels: make([]protocol.Pixel, 100)}
	c.ObserveMsg(set, 50*time.Microsecond)
	cscs := &protocol.CSCS{Src: protocol.Rect{W: 8, H: 8}, Dst: protocol.Rect{W: 16, H: 16},
		Format: protocol.CSCS8}
	c.ObserveMsg(cscs, 80*time.Microsecond)
	// Input events must be ignored.
	c.ObserveMsg(&protocol.KeyEvent{Code: 4, Down: true}, time.Microsecond)
	drift := c.Drift()
	if len(drift) != 2 {
		t.Fatalf("drift rows = %+v, want SET and CSCS", drift)
	}
	if drift[0].Cmd != protocol.CSCS8.String() || drift[0].Samples != 1 {
		t.Fatalf("row 0 = %+v", drift[0])
	}
	if drift[1].Cmd != "SET" || drift[1].TablePerPixelNs != 270 {
		t.Fatalf("row 1 = %+v", drift[1])
	}
}

func TestCalibratorGaugesAndJSON(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainWall)
	c := NewCalibrator(nil).Instrument(reg)
	feedLinear(c, protocol.TypeSet, 0, 5000, 300, 256)
	snap := reg.Snapshot()
	perPx := snap.Gauges[`slim_costmodel_per_pixel_ps{cmd="SET"}`]
	if perPx < 299_000 || perPx > 301_000 {
		t.Fatalf("per-pixel gauge = %d ps, want ≈300000", perPx)
	}
	drift := snap.Gauges[`slim_costmodel_drift_pct{cmd="SET"}`]
	if drift < 5 || drift > 17 { // 300 vs table 270 → ≈ +11%
		t.Fatalf("drift gauge = %d%%, want ≈11", drift)
	}
	if snap.Counters[`slim_costmodel_samples_total{cmd="SET"}`] != 256 {
		t.Fatalf("samples counter = %d", snap.Counters[`slim_costmodel_samples_total{cmd="SET"}`])
	}
	var sb strings.Builder
	if err := obs.WriteJSON(&sb, c.Status()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"generation"`, `"baseline"`, `"cmd": "SET"`, `"drift_pct"`} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("costmodel JSON missing %q:\n%s", want, sb.String())
		}
	}
}

func TestNilCalibratorInert(t *testing.T) {
	var c *Calibrator
	c.Observe(protocol.TypeSet, 0, 10, time.Microsecond)
	c.ObserveMsg(&protocol.Fill{Rect: protocol.Rect{W: 1, H: 1}}, time.Microsecond)
	if c.Model() != nil || c.Drift() != nil || c.Generation() != 0 {
		t.Fatal("nil calibrator not inert")
	}
	var sb strings.Builder
	if err := obs.WriteJSON(&sb, c.Status()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"generation": 0`) {
		t.Fatalf("nil calibrator JSON: %s", sb.String())
	}
	if c.Instrument(obs.NewRegistry(obs.DomainWall)) != nil {
		t.Fatal("nil Instrument should return nil")
	}
}
