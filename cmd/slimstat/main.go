// Command slimstat is a live terminal monitor for a slimd started with
// -debug: it polls the daemon's /debug/vars JSON snapshot and renders a
// one-line-per-interval summary of interactive performance in the paper's
// terms — input-to-paint percentiles against the §3 human-perception
// thresholds, display command and byte rates, and drop percentage.
//
// Usage:
//
//	slimd -debug :6060 &
//	slimstat -addr localhost:6060
//
// Output:
//
//	15:04:05  paint p50 0.8ms p95 3.1ms p99 9.7ms | 412 cmd/s | 38.1 KB/s | drop 0.00% | 2 sessions | breach 1 (3s ago)
//
// Each line covers exactly one polling interval (default 1 s), so the
// percentiles are windowed, not since-boot. Once the flight recorder has
// seen an input-to-paint breach, the line carries the cumulative breach
// count and the age of the latest one — the cue to go look at
// /debug/trace or the breach dumps. The interval arithmetic lives in
// internal/monitor.
//
// Pointed at a slimd -shards fleet, the line grows a fleet column — total and
// per-shard session occupancy, hotdesk migrations this interval, and the
// windowed reattach p99:
//
//	... | fleet 7/4sh [1 2 3 1] mig 3 reattach p99 40ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"slim/internal/monitor"
	"slim/internal/obs"
)

func main() {
	log.SetPrefix("slimstat: ")
	log.SetFlags(0)
	addr := flag.String("addr", "localhost:6060", "slimd debug endpoint (host:port)")
	interval := flag.Duration("interval", time.Second, "polling interval")
	count := flag.Int("n", 0, "stop after this many lines (0 = run until interrupted)")
	flag.Parse()

	url := "http://" + strings.TrimPrefix(*addr, "http://") + "/debug/vars"
	client := &http.Client{Timeout: *interval}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()

	prev, err := scrape(client, url)
	if err != nil {
		log.Fatal(err)
	}
	lines := 0
	for {
		select {
		case <-sig:
			return
		case <-tick.C:
		}
		cur, err := scrape(client, url)
		if err != nil {
			log.Print(err)
			continue
		}
		now := time.Now()
		fmt.Println(monitor.Summarize(prev, cur, *interval, now).Format(now))
		prev = cur
		lines++
		if *count > 0 && lines >= *count {
			return
		}
	}
}

// scrape fetches the domain-keyed snapshots served at /debug/vars.
func scrape(client *http.Client, url string) (map[string]obs.Snapshot, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	var snaps map[string]obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	return snaps, nil
}
