// Decoding a capture back into the paper's per-command tables. Tables 2-3
// of the paper break interactive and multimedia traffic down by protocol
// command: how many of each were sent, how many bytes and pixels they
// carried, and the bandwidth they consumed. BuildReport reproduces that
// shape from a .slimcap record stream by re-parsing every captured datagram
// with the real protocol decoder.
package capture

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"slim/internal/core"
	"slim/internal/protocol"
)

// Row aggregates one command type within one direction of a capture.
type Row struct {
	Label  string
	Count  int
	Bytes  int64
	Pixels int64
}

// BytesPerPixel is the wire cost per screen pixel carried (Tables 2-3's
// compression column); 0 for commands that carry no pixels.
func (r Row) BytesPerPixel() float64 {
	if r.Pixels == 0 {
		return 0
	}
	return float64(r.Bytes) / float64(r.Pixels)
}

// Report is the decoded, per-command view of a capture.
type Report struct {
	Header   Header
	Duration time.Duration // span from first to last record

	Down []Row // server→console, sorted by bytes descending
	Up   []Row // console→server, sorted by bytes descending

	DownBytes, UpBytes int64
	Records            int
	SizeOnly           int // payload-less records (size-modelled transports)
	Undecoded          int // datagrams the protocol decoder rejected
}

// Bps returns the mean offered bandwidth of rows in bits per second, using
// the report's observed duration; 0 when the capture spans no time.
func (rep *Report) Bps(r Row) float64 {
	if rep.Duration <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / rep.Duration.Seconds()
}

// Rate returns the mean command rate of a row in commands per second.
func (rep *Report) Rate(r Row) float64 {
	if rep.Duration <= 0 {
		return 0
	}
	return float64(r.Count) / rep.Duration.Seconds()
}

// rowKey separates directions so one map pass builds both tables.
type rowKey struct {
	dir   Direction
	label string
}

// BuildReport decodes every record into per-command rows.
func BuildReport(h Header, recs []Record) *Report {
	rep := &Report{Header: h, Records: len(recs)}
	rows := map[rowKey]*Row{}
	add := func(dir Direction, label string, bytes int64, pixels int64) {
		k := rowKey{dir, label}
		r := rows[k]
		if r == nil {
			r = &Row{Label: label}
			rows[k] = r
		}
		r.Count++
		r.Bytes += bytes
		r.Pixels += pixels
	}
	var minT, maxT time.Duration
	for i, rec := range recs {
		if i == 0 || rec.T < minT {
			minT = rec.T
		}
		if rec.T > maxT {
			maxT = rec.T
		}
		switch rec.Dir {
		case DirUp:
			rep.UpBytes += int64(rec.Size)
		default:
			rep.DownBytes += int64(rec.Size)
		}
		if len(rec.Wire) == 0 {
			rep.SizeOnly++
			add(rec.Dir, "RAW", int64(rec.Size), 0)
			continue
		}
		member := 0
		batch, rest := rec.Walk(func(_ uint32, m protocol.Message, size int) {
			member += size
			add(rec.Dir, m.Type().String(), int64(size), int64(core.PixelsOf(m)))
		})
		switch {
		case rest > 0:
			rep.Undecoded++
			add(rec.Dir, "UNDECODED", int64(rest), 0)
		case batch && rec.Size > member:
			add(rec.Dir, "BATCH", int64(rec.Size-member), 0)
		}
	}
	if len(recs) > 0 {
		rep.Duration = maxT - minT
	}
	for k, r := range rows {
		if k.dir == DirUp {
			rep.Up = append(rep.Up, *r)
		} else {
			rep.Down = append(rep.Down, *r)
		}
	}
	byBytes := func(rs []Row) func(i, j int) bool {
		return func(i, j int) bool {
			if rs[i].Bytes != rs[j].Bytes {
				return rs[i].Bytes > rs[j].Bytes
			}
			return rs[i].Label < rs[j].Label
		}
	}
	sort.Slice(rep.Down, byBytes(rep.Down))
	sort.Slice(rep.Up, byBytes(rep.Up))
	return rep
}

// WriteTable renders the report in the shape of the paper's Tables 2-3:
// one row per command type with counts, byte volume, share, mean size,
// pixel payload, wire cost per pixel, and rates.
func (rep *Report) WriteTable(w io.Writer) error {
	fmt.Fprintf(w, "capture: %d records over %s (%s domain)", rep.Records,
		rep.Duration.Round(time.Millisecond), rep.Header.Domain)
	if !rep.Header.Epoch.IsZero() {
		fmt.Fprintf(w, ", epoch %s", rep.Header.Epoch.Format(time.RFC3339))
	}
	fmt.Fprintf(w, "\ndown %d bytes, up %d bytes", rep.DownBytes, rep.UpBytes)
	if rep.SizeOnly > 0 {
		fmt.Fprintf(w, ", %d size-only", rep.SizeOnly)
	}
	if rep.Undecoded > 0 {
		fmt.Fprintf(w, ", %d undecoded", rep.Undecoded)
	}
	fmt.Fprintln(w)
	if err := rep.writeDir(w, "server → console", rep.Down, rep.DownBytes); err != nil {
		return err
	}
	return rep.writeDir(w, "console → server", rep.Up, rep.UpBytes)
}

func (rep *Report) writeDir(w io.Writer, title string, rows []Row, total int64) error {
	if len(rows) == 0 {
		return nil
	}
	fmt.Fprintf(w, "\n%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "command\tcount\tbytes\t%%bytes\tB/cmd\tpixels\tB/px\tcmd/s\tbits/s\t\n")
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(r.Bytes) / float64(total)
		}
		bpp := "-"
		if r.Pixels > 0 {
			bpp = fmt.Sprintf("%.2f", r.BytesPerPixel())
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f%%\t%.1f\t%d\t%s\t%.1f\t%s\t\n",
			r.Label, r.Count, r.Bytes, pct, float64(r.Bytes)/float64(r.Count), r.Pixels, bpp,
			rep.Rate(r), FormatBits(rep.Bps(r)))
	}
	return tw.Flush()
}

// FormatBits renders a bits-per-second rate with an adaptive unit, "-"
// for none.
func FormatBits(bps float64) string {
	switch {
	case bps <= 0:
		return "-"
	case bps >= 1e6:
		return fmt.Sprintf("%.2fM", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.1fk", bps/1e3)
	}
	return fmt.Sprintf("%.0f", bps)
}
