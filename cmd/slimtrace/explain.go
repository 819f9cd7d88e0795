package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/flight"
	"slim/internal/obs/incident"
	"slim/internal/obs/netqual"
	"slim/internal/trace"
)

// explainer prints what evidence paths hold and collects, when asked,
// what the exports are written from: for -perfetto every dump's session
// lanes and every capture's wire tracks (one document, and for evidence
// of one live run one timebase), for -o a §3.1 trace per dump or capture.
type explainer struct {
	w                      io.Writer
	reattribute            bool
	wantEvents, wantTraces bool
	events                 []obs.TraceEvent
	traces                 []*trace.Trace
}

// explain is the evidence reader behind `slimtrace explain`. Each path is
// a .slimcap wire capture (per-command wire tables in the shape of the
// paper's Tables 2-3, then the per-console path estimates a live server
// exports as slim_netqual_*), a breach dump (event census and last causal
// chain, then the per-stage blame table), an incident bundle (manifest,
// host state, the pprof command for its CPU profile, then the dumps and
// capture tail it holds), or a directory of dumps and bundles (the
// bundles listed, the dumps explained under one blame table).
func explain(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	perfetto := fs.String("perfetto", "", "write every dump's session lanes and every capture's wire tracks as one Chrome/Perfetto trace-event file")
	out := fs.String("o", "", "convert the one dump or capture given to a binary §3.1 trace (for slimtrace stat/replay)")
	reattr := fs.Bool("reattribute", false, "re-walk each dump's causal chain instead of trusting the verdict stamped at breach time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("explain: name at least one capture, breach dump, incident bundle or directory of them")
	}
	e := &explainer{w: w, reattribute: *reattr, wantEvents: *perfetto != "", wantTraces: *out != ""}
	for _, path := range fs.Args() {
		if err := e.path(path); err != nil {
			return err
		}
	}
	if *perfetto != "" {
		err := obs.WriteFile(*perfetto, func(f io.Writer) error { return obs.WriteJSON(f, obs.NewTraceFile(e.events)) })
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Perfetto trace to %s (load at ui.perfetto.dev)\n", *perfetto)
	}
	if *out != "" {
		if len(e.traces) != 1 {
			return fmt.Errorf("explain: -o converts one dump or capture, the paths hold %d", len(e.traces))
		}
		tr := e.traces[0]
		if err := obs.WriteFile(*out, tr.WriteBinary); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote offline trace to %s (%d records)\n", *out, len(tr.Records))
	}
	return nil
}

// path explains one argument: a file by its content, a directory as a
// bundle when it has a manifest and as a collection of dumps and bundles
// otherwise.
func (e *explainer) path(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if !fi.IsDir() {
		return e.files([]string{path})
	}
	switch err := incident.WriteSummary(e.w, path); {
	case err == nil:
		fmt.Fprintln(e.w)
		return e.files(incident.Evidence(path))
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	bundles, err := incident.List(path)
	if err != nil {
		return err
	}
	dumps, err := flight.ListDumps(path)
	if err != nil {
		return err
	}
	if len(bundles)+len(dumps) == 0 {
		return fmt.Errorf("%s: no breach dumps or incident bundles", path)
	}
	if len(bundles) > 0 {
		incident.WriteList(e.w, bundles)
		fmt.Fprintln(e.w)
	}
	return e.files(dumps)
}

// files explains evidence files one after the other, then blames the
// dumps among them together.
func (e *explainer) files(paths []string) error {
	var blame flight.Blame
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.w, "%s:\n", path)
		err = e.stream(f, &blame)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintln(e.w)
	}
	if blame.Total.Total == 0 {
		return nil
	}
	err := blame.Format(e.w)
	fmt.Fprintln(e.w)
	return err
}

// stream explains one evidence file from its bytes: a capture if it opens
// with the .slimcap magic, a breach dump (JSON) otherwise.
func (e *explainer) stream(r io.Reader, blame *flight.Blame) error {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(len(capture.Magic)); string(head) != capture.Magic {
		d, err := flight.ReadDump(br)
		if err != nil {
			return err
		}
		d.WriteSummary(e.w)
		blame.Add(d, e.reattribute)
		if e.wantEvents {
			e.events = flight.TraceEvents(e.events, d.Session, d.Events)
		}
		if e.wantTraces {
			e.traces = append(e.traces, trace.FromFlightDump(d))
		}
		return nil
	}
	h, recs, err := capture.ReadCapture(br)
	if err != nil {
		if len(recs) == 0 {
			return err
		}
		// A live spool's last record may be mid-write; the rest is good.
		fmt.Fprintf(e.w, "note: %v; explaining the %d records before it\n", err, len(recs))
	}
	if err := capture.BuildReport(h, recs).WriteTable(e.w); err != nil {
		return err
	}
	fmt.Fprintln(e.w)
	netqual.Replay(recs).WriteTable(e.w)
	if e.wantEvents {
		e.events = capture.TraceEvents(e.events, h, recs)
	}
	if e.wantTraces {
		e.traces = append(e.traces, trace.FromCapture(recs))
	}
	return nil
}
