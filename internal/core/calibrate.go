// Live calibration of the §4.3 cost model. The paper's Table 5 was
// produced by saturating a real Sun Ray 1 with each command type at
// varying sizes and fitting decode time as startup + perPixel·pixels.
// Calibrator runs the same regression continuously against the console
// this process actually drives: every decoded display command contributes
// one (pixels, duration) sample, and a sliding-window least-squares fit
// (stats.FitLine) re-estimates the per-command line as traffic flows.
//
// The fitted model serves three purposes: drift gauges show how far the
// real console has diverged from the published Table 5 constants
// (slim_costmodel_*), /debug/costmodel exposes the full fit for tooling,
// and Server's WithCalibratedCosts option feeds the fitted model back into
// the flow governor so pacing reflects measured hardware rather than a
// 1999 appliance.

package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slim/internal/obs"
	"slim/internal/protocol"
	"slim/internal/stats"
)

// Calibration windowing. A fit needs enough spread to be meaningful:
// refits happen at most every calRefitEvery observations per series, over
// a sliding window of the last calWindow samples, and only once a series
// has calMinSamples points with at least two distinct pixel counts.
const (
	calWindow     = 1024
	calMinSamples = 32
	calRefitEvery = 64
)

// calKey identifies one fitted line: a display command type, split by
// format for CSCS (each YUV format has its own per-pixel cost in Table 5).
type calKey struct {
	t protocol.MsgType
	f protocol.CSCSFormat
}

func (k calKey) label() string {
	if k.t == protocol.TypeCSCS {
		return k.f.String()
	}
	return k.t.String()
}

// calSeries is the sliding sample window and current fit for one key.
type calSeries struct {
	xs, ys [calWindow]float64
	n      int // valid samples (≤ calWindow)
	idx    int // next write position
	since  int // observations since the last refit attempt

	fit   stats.LinearFit
	fitOK bool

	// Lazily-resolved obs gauges (nil when the calibrator is uninstrumented).
	gStartup *obs.Gauge // slim_costmodel_startup_ns{cmd=...}
	gPerPx   *obs.Gauge // slim_costmodel_per_pixel_ps{cmd=...} (picoseconds: gauges are integral)
	gDrift   *obs.Gauge // slim_costmodel_drift_pct{cmd=...}
	samples  *obs.Counter
}

// Calibrator fits per-command decode costs from live observations.
// The zero value is not usable; construct with NewCalibrator. A nil
// *Calibrator is inert: every method is a safe no-op.
type Calibrator struct {
	mu     sync.Mutex
	base   *CostModel
	series map[calKey]*calSeries
	reg    *obs.Registry

	// scratch buffers reused across refits.
	sx, sy []float64

	gen atomic.Uint64
}

// NewCalibrator returns a calibrator that measures drift against base
// (nil means the published Table 5 Sun Ray 1 model).
func NewCalibrator(base *CostModel) *Calibrator {
	if base == nil {
		base = SunRay1Costs()
	}
	return &Calibrator{base: base, series: map[calKey]*calSeries{}}
}

// Instrument publishes per-command fit and drift gauges in reg and returns
// the calibrator. Gauge units: startup in ns, per-pixel in *picoseconds*
// (obs gauges are integers and per-pixel costs are small), drift in whole
// percent of the per-pixel cost versus the baseline table.
func (c *Calibrator) Instrument(reg *obs.Registry) *Calibrator {
	if c == nil || reg == nil {
		return c
	}
	c.mu.Lock()
	c.reg = reg
	for k, s := range c.series {
		c.resolveGauges(k, s)
	}
	c.mu.Unlock()
	return c
}

func (c *Calibrator) resolveGauges(k calKey, s *calSeries) {
	if c.reg == nil || s.gStartup != nil {
		return
	}
	l := fmt.Sprintf("{cmd=%q}", k.label())
	s.gStartup = c.reg.Gauge("slim_costmodel_startup_ns" + l)
	s.gPerPx = c.reg.Gauge("slim_costmodel_per_pixel_ps" + l)
	s.gDrift = c.reg.Gauge("slim_costmodel_drift_pct" + l)
	s.samples = c.reg.Counter("slim_costmodel_samples_total" + l)
}

// Generation returns a counter that increments whenever any per-command
// fit is updated. Consumers (the server's calibrated-cost refresh) poll it
// to decide when to rebuild the model.
func (c *Calibrator) Generation() uint64 {
	if c == nil {
		return 0
	}
	return c.gen.Load()
}

// Observe records one decoded display command: it took d to decode and
// touched pixels screen pixels. format is only meaningful for TypeCSCS.
func (c *Calibrator) Observe(t protocol.MsgType, format protocol.CSCSFormat, pixels int, d time.Duration) {
	if c == nil || !t.IsDisplay() || pixels < 0 || d < 0 {
		return
	}
	k := calKey{t: t}
	if t == protocol.TypeCSCS {
		k.f = format
	}
	c.mu.Lock()
	s := c.series[k]
	if s == nil {
		s = &calSeries{}
		c.series[k] = s
		c.resolveGauges(k, s)
	}
	s.xs[s.idx] = float64(pixels)
	s.ys[s.idx] = float64(d.Nanoseconds())
	s.idx = (s.idx + 1) % calWindow
	if s.n < calWindow {
		s.n++
	}
	if s.samples != nil {
		s.samples.Add(1)
	}
	s.since++
	if s.since >= calRefitEvery && s.n >= calMinSamples {
		s.since = 0
		c.refit(k, s)
	}
	c.mu.Unlock()
}

// ObserveMsg is Observe with the key and pixel count extracted from the
// message itself — the form the console decode path uses.
func (c *Calibrator) ObserveMsg(msg protocol.Message, d time.Duration) {
	if c == nil || msg == nil {
		return
	}
	var format protocol.CSCSFormat
	if m, ok := msg.(*protocol.CSCS); ok {
		format = m.Format
	}
	c.Observe(msg.Type(), format, PixelsOf(msg), d)
}

// refit re-runs the regression for one series; call with c.mu held.
func (c *Calibrator) refit(k calKey, s *calSeries) {
	c.sx = append(c.sx[:0], s.xs[:s.n]...)
	c.sy = append(c.sy[:0], s.ys[:s.n]...)
	fit, err := stats.FitLine(c.sx, c.sy)
	if err != nil {
		return // degenerate window (all samples the same size): keep the old fit
	}
	// Physical costs cannot be negative; a noisy window can still produce
	// a slightly negative intercept or slope. Clamp rather than discard.
	if fit.Slope < 0 {
		fit.Slope = 0
	}
	if fit.Intercept < 0 {
		fit.Intercept = 0
	}
	s.fit = fit
	s.fitOK = true
	c.gen.Add(1)
	if s.gStartup != nil {
		s.gStartup.Set(int64(fit.Intercept))
		s.gPerPx.Set(int64(fit.Slope * 1e3))
		s.gDrift.Set(int64(c.driftPct(k, fit)))
	}
}

// driftPct measures divergence from the baseline table as a percentage of
// the dominant coefficient: per-pixel cost when the table has one, startup
// cost otherwise.
func (c *Calibrator) driftPct(k calKey, fit stats.LinearFit) float64 {
	table := c.tablePerPixel(k)
	if table > 0 {
		return 100 * (fit.Slope - table) / table
	}
	if base := c.base.Startup[k.t]; base > 0 {
		return 100 * (fit.Intercept - base) / base
	}
	return 0
}

func (c *Calibrator) tablePerPixel(k calKey) float64 {
	if k.t == protocol.TypeCSCS {
		return c.base.CSCSPerPixel[k.f]
	}
	return c.base.PerPixel[k.t]
}

// Model returns the calibrated cost model: the baseline with every
// successfully fitted series overlaid. CSCS startup, which Table 5 lists
// once across formats, takes the mean of the fitted per-format intercepts.
func (c *Calibrator) Model() *CostModel {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := &CostModel{
		Startup:      make(map[protocol.MsgType]float64, len(c.base.Startup)),
		PerPixel:     make(map[protocol.MsgType]float64, len(c.base.PerPixel)),
		CSCSPerPixel: make(map[protocol.CSCSFormat]float64, len(c.base.CSCSPerPixel)),
	}
	for t, v := range c.base.Startup {
		m.Startup[t] = v
	}
	for t, v := range c.base.PerPixel {
		m.PerPixel[t] = v
	}
	for f, v := range c.base.CSCSPerPixel {
		m.CSCSPerPixel[f] = v
	}
	var cscsStartup float64
	var cscsFits int
	for k, s := range c.series {
		if !s.fitOK {
			continue
		}
		if k.t == protocol.TypeCSCS {
			m.CSCSPerPixel[k.f] = s.fit.Slope
			cscsStartup += s.fit.Intercept
			cscsFits++
			continue
		}
		m.Startup[k.t] = s.fit.Intercept
		m.PerPixel[k.t] = s.fit.Slope
	}
	if cscsFits > 0 {
		m.Startup[protocol.TypeCSCS] = cscsStartup / float64(cscsFits)
	}
	return m
}

// CmdDrift is one row of the measured-versus-table comparison.
type CmdDrift struct {
	Cmd             string  `json:"cmd"`
	Samples         int     `json:"samples"`
	Fitted          bool    `json:"fitted"`
	R2              float64 `json:"r2"`
	FitStartupNs    float64 `json:"fit_startup_ns"`
	FitPerPixelNs   float64 `json:"fit_per_pixel_ns"`
	TableStartupNs  float64 `json:"table_startup_ns"`
	TablePerPixelNs float64 `json:"table_per_pixel_ns"`
	DriftPct        float64 `json:"drift_pct"`
}

// Drift returns the current per-command comparison, sorted by command name.
func (c *Calibrator) Drift() []CmdDrift {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CmdDrift, 0, len(c.series))
	for k, s := range c.series {
		row := CmdDrift{
			Cmd:             k.label(),
			Samples:         s.n,
			Fitted:          s.fitOK,
			TableStartupNs:  c.base.Startup[k.t],
			TablePerPixelNs: c.tablePerPixel(k),
		}
		if s.fitOK {
			row.R2 = s.fit.R2
			row.FitStartupNs = s.fit.Intercept
			row.FitPerPixelNs = s.fit.Slope
			row.DriftPct = c.driftPct(k, s.fit)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cmd < out[j].Cmd })
	return out
}

// CostModelStatus is the /debug/costmodel document.
type CostModelStatus struct {
	Generation uint64     `json:"generation"`
	Baseline   string     `json:"baseline"`
	Rows       []CmdDrift `json:"rows"`
}

// Status reports the calibration state as the /debug/costmodel document.
func (c *Calibrator) Status() CostModelStatus {
	doc := CostModelStatus{Baseline: "table5 (Sun Ray 1)"}
	if c != nil {
		doc.Generation = c.Generation()
		doc.Rows = c.Drift()
	}
	return doc
}
