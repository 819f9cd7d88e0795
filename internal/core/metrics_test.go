package core

import (
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/protocol"
)

// TestPixelsOf pins the pixel accounting per command type, including the
// edge cases the Figure 4 numbers depend on: zero-area rectangles count
// nothing, and CSCS counts the *rendered* destination rectangle (the §7
// upscaling trick paints more pixels than it ships).
func TestPixelsOf(t *testing.T) {
	r84 := protocol.Rect{X: 1, Y: 2, W: 8, H: 4}
	cases := []struct {
		name string
		msg  protocol.Message
		want int
	}{
		{"set", &protocol.Set{Rect: r84}, 32},
		{"bitmap", &protocol.Bitmap{Rect: r84}, 32},
		{"fill", &protocol.Fill{Rect: r84}, 32},
		{"copy", &protocol.Copy{Rect: r84}, 32},
		{"fill zero width", &protocol.Fill{Rect: protocol.Rect{W: 0, H: 10}}, 0},
		{"fill zero height", &protocol.Fill{Rect: protocol.Rect{W: 10, H: 0}}, 0},
		{"fill negative dims", &protocol.Fill{Rect: protocol.Rect{W: -3, H: 5}}, 0},
		{
			// Half-resolution source scaled 2× at the console: pixels
			// affected is Dst (32×32), not Src (16×16).
			"cscs counts destination",
			&protocol.CSCS{
				Src: protocol.Rect{W: 16, H: 16},
				Dst: protocol.Rect{X: 100, Y: 100, W: 32, H: 32},
			},
			1024,
		},
		{"cscs empty destination", &protocol.CSCS{Src: protocol.Rect{W: 16, H: 16}}, 0},
		{"non-display message", &protocol.KeyEvent{}, 0},
	}
	for _, tc := range cases {
		if got := PixelsOf(tc.msg); got != tc.want {
			t.Errorf("%s: PixelsOf = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCommandStatsZeroAreaRecord confirms a zero-area command still counts
// as a command (it costs wire bytes) while contributing no pixels.
func TestCommandStatsZeroAreaRecord(t *testing.T) {
	var s CommandStats
	s.Record(&protocol.Fill{Rect: protocol.Rect{W: 0, H: 7}})
	ts := s.PerType[protocol.TypeFill]
	if ts == nil || ts.Commands != 1 {
		t.Fatalf("zero-area fill not counted as a command: %+v", ts)
	}
	if ts.Pixels != 0 || ts.RawBytes != 0 {
		t.Errorf("zero-area fill counted pixels: %+v", ts)
	}
	if ts.WireBytes != int64(protocol.WireSize(&protocol.Fill{})) {
		t.Errorf("wire bytes = %d, want header cost %d", ts.WireBytes, protocol.WireSize(&protocol.Fill{}))
	}
}

// TestEncoderMetricsMirrorsCommandStats records the same command stream
// into both the offline accumulator and the live registry and checks they
// agree per type — the invariant that makes /metrics trustworthy for the
// paper's Figure 4/8 quantities.
func TestEncoderMetricsMirrorsCommandStats(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainWall)
	em := NewEncoderMetrics(reg)
	var cs CommandStats

	msgs := []protocol.Message{
		&protocol.Fill{Rect: protocol.Rect{W: 10, H: 10}},
		&protocol.Fill{Rect: protocol.Rect{W: 4, H: 4}},
		&protocol.Copy{Rect: protocol.Rect{W: 100, H: 50}, DstX: 0, DstY: 10},
		&protocol.Set{Rect: protocol.Rect{W: 2, H: 2}, Pixels: make([]protocol.Pixel, 4)},
		&protocol.CSCS{Src: protocol.Rect{W: 8, H: 8}, Dst: protocol.Rect{W: 16, H: 16},
			Data: make([]byte, protocol.CSCS12.PayloadLen(8, 8)), Format: protocol.CSCS12},
	}
	for _, m := range msgs {
		em.Record(m)
		cs.Record(m)
	}

	snap := reg.Snapshot()
	for typ, ts := range cs.PerType {
		label := `{type="` + typ.String() + `"}`
		if got := snap.Counters["slim_encoder_commands_total"+label]; got != int64(ts.Commands) {
			t.Errorf("%s commands: registry %d, stats %d", typ, got, ts.Commands)
		}
		if got := snap.Counters["slim_encoder_wire_bytes_total"+label]; got != ts.WireBytes {
			t.Errorf("%s wire bytes: registry %d, stats %d", typ, got, ts.WireBytes)
		}
		if got := snap.Counters["slim_encoder_pixels_total"+label]; got != ts.Pixels {
			t.Errorf("%s pixels: registry %d, stats %d", typ, got, ts.Pixels)
		}
	}
	if got, want := snap.CounterSum("slim_encoder_commands_total"), int64(cs.TotalCommands()); got != want {
		t.Errorf("CounterSum commands = %d, want %d", got, want)
	}
	if got, want := snap.CounterSum("slim_encoder_wire_bytes_total"), cs.TotalWireBytes(); got != want {
		t.Errorf("CounterSum wire bytes = %d, want %d", got, want)
	}
}

// TestEncoderMetricsNilInert: the experiment harness path — no metrics, no
// panic, no accounting.
func TestEncoderMetricsNilInert(t *testing.T) {
	var em *EncoderMetrics
	em.Record(&protocol.Fill{Rect: protocol.Rect{W: 1, H: 1}})
	em.ObserveEncode(time.Millisecond)
}
