package main

import (
	"slices"
	"strings"
	"testing"

	"slim/internal/protocol"
	"slim/internal/trace"
)

// TestStatRowsInFixedOrder pins stat's per-command table: rows by bytes,
// highest first, and rows of equal bytes by command type.
func TestStatRowsInFixedOrder(t *testing.T) {
	cb := map[protocol.MsgType]trace.PerEvent{
		protocol.TypeFill:   {Bytes: 200, Pixels: 9000},
		protocol.TypeSet:    {Bytes: 5000, Pixels: 1000},
		protocol.TypeBitmap: {Bytes: 200, Pixels: 800},
		protocol.TypeCopy:   {Bytes: 700, Pixels: 40000},
		protocol.TypeCSCS:   {Bytes: 200, Pixels: 500},
	}
	ties := []protocol.MsgType{protocol.TypeFill, protocol.TypeBitmap, protocol.TypeCSCS}
	slices.Sort(ties)
	want := append([]protocol.MsgType{protocol.TypeSet, protocol.TypeCopy}, ties...)
	for range 8 {
		var out strings.Builder
		writeCommandBytes(&out, cb)
		lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		if len(lines) != 1+len(want) || lines[0] != "per-command bytes:" {
			t.Fatalf("stat printed:\n%s", out.String())
		}
		for i, cmd := range want {
			if f := strings.Fields(lines[1+i]); f[0] != cmd.String() {
				t.Fatalf("row %d is %s, want %s:\n%s", i, f[0], cmd, out.String())
			}
		}
	}
}
