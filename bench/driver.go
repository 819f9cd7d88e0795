package main

import (
	"runtime"
	"syscall"
	"time"
)

// The driver: the one goroutine that generates load and waits for paints.

// spinMargin is how long before an open-loop input is due the driver stops
// sleeping and spins, so the input goes out on time rather than a timer
// wake-up late. driver.late_p99_us reports what lateness remains.
const spinMargin = time.Millisecond

// driver is the load generator's goroutine on the UDP workloads, locked to
// one OS thread so that thread's CPU time can be told apart from the
// program's. Between two inputs it sleeps in the Go runtime like any other
// goroutine; it spins for spinMargin before an input is due, and polls for
// the paint as rig.painted describes.
type driver struct{}

func newDriver() *driver {
	runtime.LockOSThread()
	return &driver{}
}

func (d *driver) release() { runtime.UnlockOSThread() }

// cpu reports the CPU time the driver's thread has used (none for the nil
// driver of a fabric run, whose thread's CPU is the program's).
func (d *driver) cpu() time.Duration {
	if d == nil {
		return 0
	}
	return cpuTime(syscall.RUSAGE_THREAD)
}

// drive runs the workload's loop for dur starting at input first, and
// reports the next input index. (A closed-loop drive never idles, so d
// may be nil on the fabric.) Open loop: input k is due at start +
// k×period whether or not earlier ones have painted, and latency counts
// from the due time, so a stall shows up in every input it delays. Closed
// loop: the next input goes out when the previous one has painted. res
// may be nil to discard the samples (settle).
func (d *driver) drive(r rig, w workloadSpec, first int, dur time.Duration, res *liveResult) int {
	period := w.period()
	start := time.Now()
	end := start.Add(dur)
	i := first
	prev := start
	for {
		due := prev
		if period > 0 {
			due = start.Add(time.Duration(i-first) * period)
			if !due.Before(end) {
				break
			}
			time.Sleep(time.Until(due) - spinMargin)
			for time.Now().Before(due) {
			}
		} else if !prev.Before(end) {
			break
		}
		sent := due
		if period > 0 {
			sent = time.Now()
		}
		err := r.input(i)
		ok := err == nil && r.painted(i, sent.Add(paintTimeout))
		now := time.Now()
		if res != nil {
			res.attempted++
			if ok {
				res.latNs = append(res.latNs, int64(now.Sub(due)))
				res.lateNs = append(res.lateNs, int64(sent.Sub(due)))
			} else {
				res.failed++
			}
		}
		prev = now
		i++
	}
	if res != nil {
		res.windowS += time.Since(start).Seconds()
	}
	return i
}
