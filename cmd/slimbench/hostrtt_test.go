package main

import (
	"context"
	"testing"
	"time"
)

// TestHostRTT measures Table 4's host response time over the shipped UDP
// endpoint: a loopback echo with a trivial decode must come back fast (a
// generous bound for loaded CI machines).
func TestHostRTT(t *testing.T) {
	if testing.Short() {
		t.Skip("socket + timing benchmark")
	}
	rtt, err := hostRTT(context.Background(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > 50*time.Millisecond {
		t.Errorf("host RTT = %v", rtt)
	}
	t.Logf("host RTT %v", rtt)
}
