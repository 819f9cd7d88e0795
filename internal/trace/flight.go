package trace

import (
	"slim/internal/obs/flight"
	"slim/internal/protocol"
)

// FromFlight converts flight-recorder events into a §3.1 offline trace, so
// breach dumps and live /debug/trace captures flow through the same
// analysis path as generated workload traces: bytes/pixels-per-event CDFs,
// bandwidth figures, and netsim replay all work on a dump.
//
// The mapping keeps only the records the offline format models: INPUT
// events become key or click records (bare pointer motion is kept as a
// click — the dump has no button state, and dropping it would hide the
// event that opened a causal chain), and ENCODE events become display
// records carrying the command's wire bytes and touched pixels. Transport
// and console legs (TX/RX/PAINT) have no offline equivalent and are
// skipped. Timestamps are rebased so the trace starts at zero.
func FromFlight(app string, evs []flight.Event) *Trace {
	tr := &Trace{App: app}
	for _, ev := range evs {
		r := Record{T: ev.T}
		switch ev.Kind {
		case flight.EvInput:
			switch ev.Cmd {
			case protocol.TypeKey:
				r.Kind = KindKey
			default:
				r.Kind = KindClick
			}
		case flight.EvEncode:
			r.Kind, r.Cmd, r.Bytes, r.Pixels = KindDisplay, ev.Cmd, int(ev.A), int(ev.B)
		default:
			continue
		}
		tr.Append(r)
	}
	tr.rebase()
	return tr
}

// FromFlightDump converts one breach dump, naming the trace after its
// session.
func FromFlightDump(d *flight.Dump) *Trace {
	tr := FromFlight("flight", d.Events)
	tr.User = int(d.Session)
	return tr
}
