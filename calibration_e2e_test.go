package slim

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"slim/internal/core"
	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/protocol"
)

// The calibration end-to-end: a synthetic console whose true decode costs
// are a known multiple of Table 5 feeds the live calibrator through its
// normal decode path; the fitted per-pixel costs must converge to the
// truth (within 25%), the drift must be visible where an operator looks
// (/metrics text and /debug/costmodel JSON), and a server built with
// WithCalibratedCosts must re-derive its governors' bandwidth demand from
// the fitted model — the §4.3 measure→fit→pace loop, closed.

// scaledCosts returns Table 5 with every startup and per-pixel cost
// multiplied by k — a console k× slower than the 1999 Sun Ray 1.
func scaledCosts(k float64) *CostModel {
	cm := SunRay1Costs()
	for t := range cm.Startup {
		cm.Startup[t] *= k
	}
	for t := range cm.PerPixel {
		cm.PerPixel[t] *= k
	}
	for f := range cm.CSCSPerPixel {
		cm.CSCSPerPixel[f] *= k
	}
	return cm
}

// feedConsole drives a console with sequenced display datagrams of varying
// pixel counts — enough spread per command type for the regression to
// identify both the startup and the per-pixel coefficient.
func feedConsole(t *testing.T, con *Console, rounds int) {
	t.Helper()
	seq := uint32(0)
	now := time.Duration(0)
	send := func(m protocol.Message) {
		seq++
		now += time.Millisecond
		if _, err := con.HandleDatagram(protocol.Encode(nil, seq, m), now); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		w := 8 + 4*(r%32) // pixel counts sweep 32 distinct widths
		px := make([]Pixel, w*2)
		send(&protocol.Set{Rect: Rect{X: 0, Y: 0, W: w, H: 2}, Pixels: px})
		send(&protocol.Fill{Rect: Rect{X: 0, Y: 4, W: w, H: 4}, Color: RGB(1, 2, 3)})
		send(&protocol.Copy{Rect: Rect{X: 0, Y: 0, W: w, H: 3}, DstX: 0, DstY: 16})
		bm := &protocol.Bitmap{Rect: Rect{X: 0, Y: 24, W: w, H: 2},
			Fg: RGB(9, 9, 9), Bg: RGB(0, 0, 0)}
		bm.Bits = make([]byte, protocol.BitmapRowBytes(w)*2)
		send(bm)
		cs := &protocol.CSCS{
			Src: Rect{W: w, H: 4}, Dst: Rect{X: 0, Y: 32, W: w, H: 4},
			Format: CSCS8,
		}
		cs.Data = make([]byte, cs.Format.PayloadLen(w, 4))
		send(cs)
	}
}

// recordingTransport captures every datagram a server sends.
type recordingTransport struct {
	sent [][]byte
}

func (r *recordingTransport) Send(console string, wire []byte) error {
	r.sent = append(r.sent, append([]byte(nil), wire...))
	return nil
}

// SendBurst records a burst as the UDP endpoint would send it: display
// runs packed into §5.4 frames, which bandwidthRequests must see past.
func (r *recordingTransport) SendBurst(console string, wires [][]byte) error {
	return packAndSend(wires, func(datagram []byte, _ int) error { return r.Send(console, datagram) })
}
func (r *recordingTransport) Addr() net.Addr { return fabricAddr{} }
func (r *recordingTransport) Close() error   { return nil }

// bandwidthRequests decodes the BW_REQUEST demands in sent order.
func bandwidthRequests(t *testing.T, wires [][]byte) []uint64 {
	t.Helper()
	var out []uint64
	for _, w := range wires {
		if protocol.IsBatch(w) {
			continue
		}
		rest := w
		for len(rest) > 0 {
			_, m, n, err := protocol.Decode(rest)
			if err != nil {
				break
			}
			if req, ok := m.(*protocol.BandwidthRequest); ok {
				out = append(out, req.Bps)
			}
			rest = rest[n:]
		}
	}
	return out
}

func TestCalibrationConvergesAndRepacesGovernor(t *testing.T) {
	const slowdown = 3.0
	kit := NewTelemetry()
	reg := kit.Registry
	cal := NewCalibrator(nil).Instrument(reg) // drift measured against Table 5
	truth := scaledCosts(slowdown)

	// A server with flow control and calibrated costs, attached to one
	// session before any calibration exists: its governor starts from the
	// published Table 5 demand.
	tr := &recordingTransport{}
	srv := NewServer(tr, WithTerminalApp(),
		WithTelemetry(kit),
		WithFlowControl(FlowConfig{}),
		WithCalibratedCosts(cal))
	srv.Auth.Register("card-a", "alice")
	if err := srv.Handle("desk-a", &protocol.Hello{Width: 640, Height: 480, CardToken: "card-a"}, 0); err != nil {
		t.Fatal(err)
	}
	before := bandwidthRequests(t, tr.sent)
	if len(before) == 0 {
		t.Fatal("attach sent no bandwidth request")
	}
	tableDemand := flow.DefaultDemandBps(SunRay1Costs())
	if before[0] != tableDemand {
		t.Fatalf("pre-calibration demand = %d, want table-derived %d", before[0], tableDemand)
	}

	// The synthetic console: its true costs are 3× Table 5, installed as
	// the modelled decode delay, with the shared calibrator observing.
	con, err := NewConsole(ConsoleConfig{
		Width: 640, Height: 480,
		Costs:      truth,
		Calibrator: cal,
	})
	if err != nil {
		t.Fatal(err)
	}
	feedConsole(t, con, 200) // 200 samples per command type, 32 distinct sizes

	if cal.Generation() == 0 {
		t.Fatal("calibrator never refit")
	}

	// Convergence: every fitted per-pixel cost within 25% of the console's
	// true (scaled) costs. The fit should be essentially exact here — the
	// observations are noise-free — so 25% is the acceptance ceiling, not
	// the expectation.
	model := cal.Model()
	within := func(name string, got, want float64) {
		t.Helper()
		if want == 0 {
			return
		}
		if rel := math.Abs(got-want) / want; rel > 0.25 {
			t.Errorf("%s per-pixel = %.1f ns, true %.1f ns (off %.0f%%)",
				name, got, want, 100*rel)
		}
	}
	for _, typ := range []protocol.MsgType{
		protocol.TypeSet, protocol.TypeBitmap, protocol.TypeFill, protocol.TypeCopy,
	} {
		within(typ.String(), model.PerPixel[typ], truth.PerPixel[typ])
	}
	within(CSCS8.String(), model.CSCSPerPixel[CSCS8], truth.CSCSPerPixel[CSCS8])

	// Drift is visible in the Prometheus exposition: a console 3× slower
	// than Table 5 reads as ≈ +200% on the drift gauges.
	var metrics strings.Builder
	reg.WritePrometheus(&metrics)
	if !strings.Contains(metrics.String(), "slim_costmodel_drift_pct") {
		t.Error("/metrics has no slim_costmodel_drift_pct series")
	}
	setDrift := reg.Snapshot().Gauges[`slim_costmodel_drift_pct{cmd="SET"}`]
	if setDrift < 150 || setDrift > 250 {
		t.Errorf("SET drift gauge = %d%%, want ≈ +200%% for a 3× slower console", setDrift)
	}

	// ... and in the /debug/costmodel JSON.
	rw := httptest.NewRecorder()
	obs.JSONHandler(func(*http.Request) (any, error) { return cal.Status(), nil }).ServeHTTP(rw, httptest.NewRequest("GET", "/debug/costmodel", nil))
	var doc struct {
		Generation uint64          `json:"generation"`
		Rows       []core.CmdDrift `json:"rows"`
	}
	if err := json.NewDecoder(rw.Result().Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Generation == 0 || len(doc.Rows) == 0 {
		t.Fatalf("/debug/costmodel = generation %d, %d rows", doc.Generation, len(doc.Rows))
	}
	sawSet := false
	for _, row := range doc.Rows {
		if row.Cmd == protocol.TypeSet.String() {
			sawSet = true
			if !row.Fitted || row.DriftPct < 150 || row.DriftPct > 250 {
				t.Errorf("SET row = %+v, want fitted with ≈ +200%% drift", row)
			}
		}
	}
	if !sawSet {
		t.Error("/debug/costmodel has no SET row")
	}

	// The closed loop: the next flow pump applies the fitted model to the
	// session governor and re-announces a demand matched to the slower
	// console — lower than the table-derived request, and derived from the
	// fitted model. The drive's interactive traffic measures far below the
	// fitted ceiling, so the gen-2 demand feedback announces the fitted
	// model's interactive floor (ceiling/8) — still a pure function of the
	// calibrated model, just clamped by what the session actually sends.
	sentBefore := len(tr.sent)
	if _, _, err := srv.PumpFlows(time.Second); err != nil {
		t.Fatal(err)
	}
	after := bandwidthRequests(t, tr.sent[sentBefore:])
	if len(after) == 0 {
		t.Fatal("calibration advanced but no re-announced bandwidth request")
	}
	calibratedDemand := after[len(after)-1]
	if calibratedDemand >= tableDemand {
		t.Errorf("calibrated demand %d not below table demand %d for a slower console",
			calibratedDemand, tableDemand)
	}
	if want := flow.DefaultDemandBps(model) / 8; calibratedDemand != want {
		t.Errorf("calibrated demand = %d, want DefaultDemandBps(fitted)/8 = %d (idle-floored measured demand)",
			calibratedDemand, want)
	}
}
