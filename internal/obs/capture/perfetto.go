// Chrome/Perfetto trace-event export for captures. The events land on a
// dedicated "wire" process with one track per direction; rendered into the
// same document as a flight-recorder export (slimtrace explain -perfetto)
// the datagrams line up under the INPUT→ENCODE→TX→PAINT spans they carry,
// because a live capture and the flight rings are both stamped from
// obs.Wall.
package capture

import (
	"fmt"

	"slim/internal/obs"
	"slim/internal/protocol"
)

// wirePID keeps capture tracks clear of flight's per-session pids, which
// are real SLIM session ids counted from 1.
const wirePID = 999999

// datagramName summarises one record for the track: the decoded command
// type (or batch census) plus the wire size.
func datagramName(rec Record) string {
	if len(rec.Wire) == 0 {
		return fmt.Sprintf("RAW %dB", rec.Size)
	}
	name, n := "?", 0
	batch, _ := rec.Walk(func(_ uint32, m protocol.Message, _ int) {
		if n++; n == 1 {
			name = m.Type().String()
		}
	})
	switch {
	case batch && n > 0:
		name = fmt.Sprintf("SB×%d", n)
	case batch:
		name = "SB?"
	}
	return fmt.Sprintf("%s %dB", name, rec.Size)
}

// TraceEvents renders the capture onto out as instant events on a down
// and an up track.
func TraceEvents(out []obs.TraceEvent, h Header, recs []Record) []obs.TraceEvent {
	out = append(out,
		obs.TraceEvent{Name: "process_name", Ph: "M", PID: wirePID,
			Args: map[string]any{"name": "wire capture (" + string(h.Domain) + ")"}},
		obs.TraceEvent{Name: "thread_name", Ph: "M", PID: wirePID, TID: int(DirDown),
			Args: map[string]any{"name": "down (server→console)"}},
		obs.TraceEvent{Name: "thread_name", Ph: "M", PID: wirePID, TID: int(DirUp),
			Args: map[string]any{"name": "up (console→server)"}},
	)
	for _, rec := range recs {
		args := map[string]any{"bytes": rec.Size}
		if rec.Console != "" {
			args["console"] = rec.Console
		}
		if rec.Flow >= 0 {
			args["flow"] = rec.Flow
		}
		out = append(out, obs.TraceEvent{
			Name:  datagramName(rec),
			Cat:   "wire",
			Ph:    "i",
			Scope: "t",
			TS:    float64(rec.T.Nanoseconds()) / 1e3,
			PID:   wirePID,
			TID:   int(rec.Dir),
			Args:  args,
		})
	}
	return out
}
