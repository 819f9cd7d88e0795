package slim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/protocol"
)

// The capture end-to-end: the overload scenario runs with a wire-capture
// ring tapped into its transport, the ring spools to an in-memory
// .slimcap stream, and `slimtrace explain`'s decode path (ReadCapture →
// BuildReport) reconstructs the paper's Tables 2-3 shape — per-command
// counts, bytes, pixels, and bandwidth in both directions — from the
// captured datagrams alone. This is the tentpole's acceptance check:
// wire-level attribution survives the full spool/read round trip on
// realistic mixed interactive+video traffic.
func TestOverloadCaptureReproducesCommandMix(t *testing.T) {
	kit := NewTelemetry()
	ring := capture.NewRing(1 << 16).Instrument(kit.Registry)
	ring.SetEnabled(true)
	runOverload(t, true, kit, ring)
	ring.SetEnabled(false)
	if ring.Records() == 0 {
		t.Fatal("ring captured nothing")
	}

	// Spool exactly as slim.StartCapture does: header, then records. The
	// harness runs on virtual time, so the capture is sim-domain with no
	// wall epoch.
	var buf bytes.Buffer
	if err := capture.WriteHeader(&buf, obs.DomainSim, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ring.SpoolTo(&buf); err != nil {
		t.Fatal(err)
	}

	h, recs, err := capture.ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.Domain != obs.DomainSim || !h.Epoch.IsZero() {
		t.Errorf("header = %+v, want sim domain without wall epoch", h)
	}
	if len(recs) != int(ring.Records()) {
		t.Errorf("read %d records, ring recorded %d", len(recs), ring.Records())
	}
	if ring.Drops() != 0 {
		t.Errorf("ring shed %d records; grow the test ring", ring.Drops())
	}

	rep := capture.BuildReport(h, recs)
	if rep.Undecoded != 0 {
		t.Errorf("%d captured datagrams did not decode", rep.Undecoded)
	}
	if rep.Duration <= 0 {
		t.Error("report has no time span")
	}

	rows := func(rs []capture.Row) map[string]capture.Row {
		m := make(map[string]capture.Row, len(rs))
		for _, r := range rs {
			m[r.Label] = r
		}
		return m
	}
	down, up := rows(rep.Down), rows(rep.Up)

	// Tables 2-3 shape, downstream: the video sessions dominate bytes via
	// CSCS, the terminals echo keystrokes via pixel commands, and every
	// pixel-bearing row carries a sane wire cost per pixel.
	cscs, ok := down[protocol.TypeCSCS.String()]
	if !ok {
		t.Fatalf("no CSCS row in downstream table: %+v", rep.Down)
	}
	if cscs.Count == 0 || cscs.Pixels == 0 {
		t.Fatalf("CSCS row empty: %+v", cscs)
	}
	// Table 3's signature: video traffic dominates the downstream byte
	// volume, and the per-pixel wire cost is attributed.
	if cscs.Bytes <= rep.DownBytes/2 {
		t.Errorf("CSCS carries %d of %d downstream bytes, want the majority",
			cscs.Bytes, rep.DownBytes)
	}
	if cscs.BytesPerPixel() <= 0 {
		t.Errorf("CSCS bytes/pixel = %.2f, want > 0", cscs.BytesPerPixel())
	}
	if rep.Bps(cscs) <= 0 {
		t.Error("CSCS bandwidth is zero")
	}
	var interactivePixels int64
	for _, label := range []string{
		protocol.TypeSet.String(), protocol.TypeBitmap.String(),
		protocol.TypeFill.String(), protocol.TypeCopy.String(),
	} {
		interactivePixels += down[label].Pixels
	}
	if interactivePixels == 0 {
		t.Errorf("no interactive pixel commands in downstream table: %+v", rep.Down)
	}

	// Upstream: the console control plane — small, but present and
	// attributed. Under the governor every console issues bandwidth
	// grants, and the lossy shrunken link forces NACK recovery.
	if len(up) == 0 {
		t.Fatal("no upstream rows")
	}
	if _, ok := up[protocol.TypeBandwidthGrant.String()]; !ok {
		t.Errorf("no bandwidth-grant row in upstream table: %+v", rep.Up)
	}
	if rep.UpBytes >= rep.DownBytes {
		t.Errorf("upstream %d bytes outweighs downstream %d", rep.UpBytes, rep.DownBytes)
	}

	// The rendered table is what `slimtrace explain` prints: both
	// directions, the command column, and a bandwidth column.
	var out strings.Builder
	if err := rep.WriteTable(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"server → console", "console → server", "command", "bits/s",
		protocol.TypeCSCS.String(), protocol.TypeBandwidthGrant.String(),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("rendered table missing %q:\n%s", want, out.String())
		}
	}
}
