package trace

import (
	"slim/internal/core"
	"slim/internal/obs/capture"
	"slim/internal/protocol"
)

// FromCapture converts wire-capture records into a §3.1 offline trace, so
// a live .slimcap capture flows through the same analysis path as
// generated workload traces (stat, replay, bytes/pixels-per-event CDFs).
//
// Down-direction display commands (batch members included) become display
// records with their wire bytes and touched pixels. Up-direction key
// events become key records and pointer events with buttons pressed
// become clicks; bare motion is dropped, matching the paper's §5.1 input
// definition. Size-only records (netsim) and undecodable datagrams have
// no offline equivalent and are skipped. Timestamps are rebased so the
// trace starts at zero.
func FromCapture(recs []capture.Record) *Trace {
	tr := &Trace{App: "capture"}
	for _, rec := range recs {
		rec.Walk(func(_ uint32, m protocol.Message, size int) {
			switch msg := m.(type) {
			case *protocol.KeyEvent:
				if msg.Down {
					tr.Append(Record{T: rec.T, Kind: KindKey})
				}
			case *protocol.PointerEvent:
				if msg.Buttons != 0 {
					tr.Append(Record{T: rec.T, Kind: KindClick})
				}
			default:
				if m.Type().IsDisplay() {
					tr.Append(Record{T: rec.T, Kind: KindDisplay, Cmd: m.Type(), Bytes: size, Pixels: core.PixelsOf(m)})
				}
			}
		})
	}
	tr.rebase()
	return tr
}
