//go:build ignore

// Regenerates seed.slimcap, the checked-in wire-capture fixture that seeds
// FuzzDecodeMessage and exercises the .slimcap reader from a cold file.
// The capture holds one record per protocol message type, a batch, and a
// size-only record, all at fixed timestamps so the file is deterministic.
//
// Run from internal/protocol:
//
//	go run testdata/gen_seed.go
package main

import (
	"log"
	"os"
	"time"

	"slim/internal/obs/capture"
	"slim/internal/protocol"
)

func main() {
	f, err := os.Create("testdata/seed.slimcap")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	// Fixed epoch: the fixture must be byte-stable across regenerations.
	epoch := time.Unix(946684800, 0) // 2000-01-01T00:00:00Z
	if err := capture.WriteHeader(f, "wall", epoch); err != nil {
		log.Fatal(err)
	}

	bm := &protocol.Bitmap{
		Rect: protocol.Rect{X: 1, Y: 2, W: 17, H: 3},
		Fg:   protocol.RGB(1, 2, 3), Bg: protocol.RGB(4, 5, 6),
	}
	bm.Bits = make([]byte, protocol.BitmapRowBytes(17)*3)
	for i := range bm.Bits {
		bm.Bits[i] = byte(i * 37)
	}
	cs := &protocol.CSCS{
		Src: protocol.Rect{W: 8, H: 6}, Dst: protocol.Rect{X: 10, Y: 20, W: 16, H: 12},
		Format: protocol.CSCS12,
	}
	cs.Data = make([]byte, cs.Format.PayloadLen(8, 6))
	for i := range cs.Data {
		cs.Data[i] = byte(i)
	}
	down := []protocol.Message{
		&protocol.Set{Rect: protocol.Rect{X: 3, Y: 4, W: 2, H: 2}, Pixels: []protocol.Pixel{1, 2, 3, 4}},
		bm,
		&protocol.Fill{Rect: protocol.Rect{W: 100, H: 50}, Color: protocol.RGB(9, 8, 7)},
		&protocol.Copy{Rect: protocol.Rect{X: 5, Y: 6, W: 7, H: 8}, DstX: 9, DstY: 10},
		cs,
		&protocol.HelloAck{SessionID: 7},
		&protocol.BandwidthGrant{SessionID: 7, Bps: 10_000_000},
	}
	up := []protocol.Message{
		&protocol.Hello{Width: 1280, Height: 1024, CardToken: "card-42"},
		&protocol.KeyEvent{Code: 0x1234, Down: true},
		&protocol.PointerEvent{X: 100, Y: 200, Buttons: 1},
		&protocol.Status{LastSeq: 10, Dropped: 2, Backlog: 3},
		&protocol.Nack{From: 5, To: 9},
		&protocol.BandwidthRequest{SessionID: 7, Bps: 40_000_000},
	}

	var buf []byte
	t := time.Millisecond
	add := func(dir capture.Direction, wire []byte) {
		buf = capture.AppendRecord(buf, capture.Record{
			T: t, Dir: dir, Flow: 1, Console: "desk-1",
			Size: len(wire), Wire: wire,
		})
		t += time.Millisecond
	}
	for i, m := range down {
		add(capture.DirDown, protocol.Encode(nil, uint32(i+1), m))
	}
	for i, m := range up {
		add(capture.DirUp, protocol.Encode(nil, uint32(i+100), m))
	}
	fill := &protocol.Fill{Rect: protocol.Rect{W: 4, H: 4}, Color: 5}
	batch, err := protocol.EncodeBatch(nil, []uint32{20, 21}, []protocol.Message{fill, fill})
	if err != nil {
		log.Fatal(err)
	}
	add(capture.DirDown, batch)
	// One size-only record, as a netsim link would tap it.
	buf = capture.AppendRecord(buf, capture.Record{T: t, Dir: capture.DirDown, Flow: -1, Size: 1500})

	if _, err := f.Write(buf); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote testdata/seed.slimcap (%d bytes)", len(buf)+16)
}
