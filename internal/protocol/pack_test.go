package protocol_test

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"slim/internal/protocol"
	"slim/internal/raceflag"
)

// maxDatagram is the limit the UDP endpoint packs to: header plus the
// encoder's default MTU (core.DefaultMTU, which this package cannot import).
const maxDatagram = protocol.HeaderSize + 1400

// packAll runs a burst through PackFrame the way every caller does,
// copying each datagram out of the reused frame buffer.
func packAll(wires [][]byte, limit int) (out [][]byte, runs []int) {
	var frame []byte
	for len(wires) > 0 {
		var d []byte
		var n int
		d, n = protocol.PackFrame(frame, wires, limit)
		if n > 1 {
			frame = d
			d = append([]byte(nil), d...)
		}
		out, runs = append(out, d), append(runs, n)
		wires = wires[n:]
	}
	return out, runs
}

type seqMsg struct {
	seq uint32
	msg protocol.Message
}

// checkPacked asserts the packer's contract on one burst: every wire is
// consumed exactly once and in order; a run of one is the input wire
// itself; a frame stays within limit, 255 members and a sequence span of
// 255; and decoding the output yields exactly the (seq, message) sequence
// decoding the input does. A wire that does not decode stays exactly as
// undecodable: packed bodies are moved, never interpreted.
func checkPacked(t *testing.T, wires [][]byte, limit int) {
	t.Helper()
	out, runs := packAll(wires, limit)
	i := 0
	for k, d := range out {
		n := runs[k]
		if n < 1 || i+n > len(wires) {
			t.Fatalf("datagram %d stands for %d wires at %d of %d", k, n, i, len(wires))
		}
		in := wires[i : i+n]
		i += n
		if n == 1 {
			if len(d) > 0 && &d[0] != &in[0][0] || len(d) != len(in[0]) {
				t.Fatalf("datagram %d: a run of one is not its input wire", k)
			}
			continue
		}
		if !protocol.IsBatch(d) || len(d) > limit || n > 255 {
			t.Fatalf("datagram %d: framed=%v, %d B (limit %d), %d members", k, protocol.IsBatch(d), len(d), limit, n)
		}
		var want []seqMsg
		decodable := true
		for _, w := range in {
			seq, msg, used, err := protocol.Decode(w)
			if err != nil {
				decodable = false
				break
			}
			if used != len(w) || !msg.Type().IsDisplay() {
				t.Fatalf("datagram %d framed a wire that is not one display command", k)
			}
			if base := binary.BigEndian.Uint32(in[0][4:]); seq < base || seq-base > 255 {
				t.Fatalf("datagram %d: seq %d framed on base %d", k, seq, base)
			}
			want = append(want, seqMsg{seq, msg})
		}
		seqs, msgs, err := protocol.DecodeBatch(d)
		if !decodable {
			if err == nil {
				t.Fatalf("datagram %d decodes though a member wire does not", k)
			}
			continue
		}
		if err != nil {
			t.Fatalf("datagram %d: %v", k, err)
		}
		var got []seqMsg
		for j := range msgs {
			got = append(got, seqMsg{seqs[j], msgs[j]})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("datagram %d: frame decodes to %d commands that differ from its %d wires", k, len(got), len(want))
		}
	}
	if i != len(wires) {
		t.Fatalf("packed %d of %d wires", i, len(wires))
	}
}

func cachePaint(seq uint32) []byte {
	return protocol.Encode(nil, seq, &protocol.CachePaint{
		Rect: protocol.Rect{X: int(seq%40) * 16, Y: int(seq/40%64) * 16, W: 16, H: 16}, Key: uint64(seq) * 0x9e3779b97f4a7c15})
}

// scrollBurst is what one warmed gen-2 scroll step hands the endpoint: a
// COPY and the exposed strip's 96 cache hits.
func scrollBurst(seq uint32) [][]byte {
	wires := [][]byte{protocol.Encode(nil, seq, &protocol.Copy{Rect: protocol.Rect{W: 512, H: 464}, DstY: 48})}
	for i := uint32(1); i <= 96; i++ {
		wires = append(wires, cachePaint(seq+i))
	}
	return wires
}

// attachBurst is a 1280x1024 gen-2 attach: one CACHE_PAINT per tile.
func attachBurst() [][]byte {
	wires := make([][]byte, 5120)
	for i := range wires {
		wires[i] = cachePaint(uint32(i + 1))
	}
	return wires
}

// TestPackFrame pins the limits one at a time (the cases core.Batcher's
// tests walked before the packer replaced it).
func TestPackFrame(t *testing.T) {
	fill := func(seq uint32) []byte {
		return protocol.Encode(nil, seq, &protocol.Fill{Rect: protocol.Rect{X: int(seq % 64), W: 2, H: 2}, Color: protocol.Pixel(seq)})
	}
	fills := func(from, n uint32) (ws [][]byte) {
		for i := uint32(0); i < n; i++ {
			ws = append(ws, fill(from+i)) // from+i may wrap
		}
		return ws
	}
	big := protocol.Encode(nil, 2, &protocol.Set{Rect: protocol.Rect{W: 600, H: 1}, Pixels: make([]protocol.Pixel, 600)})
	status := protocol.Encode(nil, 0, &protocol.Status{LastSeq: 9})
	framed, _ := protocol.PackFrame(nil, fills(1, 3), maxDatagram)
	framed = append([]byte(nil), framed...)

	cases := []struct {
		name  string
		wires [][]byte
		limit int
		runs  []int
	}{
		{"ten fills, one frame", fills(1, 10), maxDatagram, []int{10}},
		{"one command stays plain", fills(7, 1), maxDatagram, []int{1}},
		{"small limit splits", fills(1, 40), 256, []int{16, 16, 8}}, // 8 + 16 x (4+11) = 248
		{"oversized command closes the frame", [][]byte{fill(1), big, fill(3), fill(4)}, maxDatagram, []int{1, 1, 2}},
		{"control closes the frame", [][]byte{fill(1), fill(2), status, fill(3), fill(4)}, maxDatagram, []int{2, 1, 2}},
		{"a frame is passed through", [][]byte{fill(1), framed, fill(5), fill(6)}, maxDatagram, []int{1, 1, 2}},
		{"sequence jump past 255", append(fills(1, 2), fills(500, 2)...), maxDatagram, []int{2, 2}},
		{"delta of exactly 255 fits", [][]byte{fill(1), fill(256)}, maxDatagram, []int{2}},
		{"a retransmit below the base", [][]byte{fill(10), fill(11), fill(4), fill(5)}, maxDatagram, []int{2, 2}},
		{"across the 2^32 wrap", append(fills(0xfffffffe, 2), fills(0, 2)...), maxDatagram, []int{2, 2}},
		{"256 members", fills(1, 256), 1 << 16, []int{255, 1}},
		{"scroll step", scrollBurst(1000), maxDatagram, []int{70, 27}},
	}
	for _, tc := range cases {
		_, runs := packAll(tc.wires, tc.limit)
		if !reflect.DeepEqual(runs, tc.runs) {
			t.Errorf("%s: runs %v, want %v", tc.name, runs, tc.runs)
		}
		checkPacked(t, tc.wires, tc.limit)
	}
	if out, _ := packAll(attachBurst(), maxDatagram); len(out) != 74 {
		t.Errorf("a 5,120-tile attach packs into %d datagrams, want 74", len(out))
	}
	// Framing saves 8 bytes a member and costs 8 a frame: the scroll step's
	// 2,712 B leave as 1,952, the figure bench reports per event.
	out, _ := packAll(scrollBurst(1), maxDatagram)
	if packed := len(out[0]) + len(out[1]); packed != 2712-97*8+2*8 {
		t.Errorf("scroll step packs into %d B, want %d", packed, 2712-97*8+2*8)
	}
}

// randomBurst mixes everything an endpoint can be handed: display commands
// small and MTU-sized, control messages, oversize commands, wires that are
// already frames, garbage, and sequence numbers that creep, jump past 255,
// step back and cross the wrap.
func randomBurst(rng *rand.Rand) [][]byte {
	seq := rng.Uint32()
	if rng.Intn(4) == 0 {
		seq = 0xffffffff - uint32(rng.Intn(300)) // walk into the wrap
	}
	var wires [][]byte
	for n := 1 + rng.Intn(400); n > 0; n-- {
		switch rng.Intn(16) {
		case 0:
			seq += 200 + uint32(rng.Intn(200))
		case 1:
			seq -= uint32(rng.Intn(8))
		default:
			seq++
		}
		var w []byte
		switch k := rng.Intn(20); {
		case k < 10:
			w = cachePaint(seq)
		case k < 13:
			w = protocol.Encode(nil, seq, &protocol.Fill{Rect: protocol.Rect{W: 1 + rng.Intn(9), H: 3}, Color: 7})
		case k < 15:
			px := make([]protocol.Pixel, 1+rng.Intn(460))
			w = protocol.Encode(nil, seq, &protocol.Set{Rect: protocol.Rect{W: len(px), H: 1}, Pixels: px})
		case k == 15:
			px := make([]protocol.Pixel, 500+rng.Intn(400)) // over any frame
			w = protocol.Encode(nil, seq, &protocol.Set{Rect: protocol.Rect{W: len(px), H: 1}, Pixels: px})
		case k == 16:
			w = protocol.Encode(nil, 0, &protocol.Status{LastSeq: seq})
		case k == 17:
			w = protocol.Encode(nil, 0, &protocol.HelloAck{SessionID: 3})
		case k == 18:
			w, _ = protocol.EncodeBatch(nil, []uint32{seq, seq + 1}, []protocol.Message{
				&protocol.Fill{Rect: protocol.Rect{W: 2, H: 2}}, &protocol.Fill{Rect: protocol.Rect{W: 3, H: 3}}})
		default:
			w = make([]byte, rng.Intn(40))
			rng.Read(w)
		}
		wires = append(wires, w)
	}
	return wires
}

func TestPackFrameProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		limit := []int{64, 300, maxDatagram, 1 << 16}[rng.Intn(4)]
		checkPacked(t, randomBurst(rng), limit)
	}
}

// burstBytes and splitBurst are the fuzz target's input format: a burst is
// its wires back to back, each behind a 16-bit length.
func burstBytes(wires [][]byte) []byte {
	var b []byte
	for _, w := range wires {
		b = binary.BigEndian.AppendUint16(b, uint16(len(w)))
		b = append(b, w...)
	}
	return b
}

func splitBurst(b []byte) (wires [][]byte) {
	for len(b) >= 2 {
		n := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if n > len(b) {
			n = len(b)
		}
		if n > 0 {
			wires = append(wires, b[:n])
		}
		b = b[n:]
	}
	return wires
}

// FuzzPackFrames feeds the packer arbitrary bursts — seeded from the
// checked-in capture (every message type, a frame, a size-only record),
// that capture renumbered into one consecutive display run, and a scroll
// step — and holds it to checkPacked's contract at a fuzzed limit.
func FuzzPackFrames(f *testing.F) {
	_, recs := seedCaptureRecords(f)
	var asIs, renumbered [][]byte
	for i, rec := range recs {
		if len(rec.Wire) < protocol.HeaderSize {
			continue
		}
		asIs = append(asIs, rec.Wire)
		w := append([]byte(nil), rec.Wire...)
		binary.BigEndian.PutUint32(w[4:], 0xfffffff0+uint32(i))
		renumbered = append(renumbered, w)
	}
	f.Add(burstBytes(asIs), uint16(maxDatagram))
	f.Add(burstBytes(renumbered), uint16(maxDatagram))
	f.Add(burstBytes(scrollBurst(40)), uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		if wires := splitBurst(data); len(wires) > 0 {
			checkPacked(t, wires, int(limit))
		}
	})
}

// TestZeroAllocPackFrames: packing is a copy of header fields and bodies
// into a buffer the caller brought; a burst of any length allocates nothing.
func TestZeroAllocPackFrames(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	frame := make([]byte, 0, maxDatagram)
	for _, burst := range [][][]byte{scrollBurst(1), attachBurst()} {
		allocs := testing.AllocsPerRun(20, func() {
			for wires := burst; len(wires) > 0; {
				_, n := protocol.PackFrame(frame, wires, maxDatagram)
				wires = wires[n:]
			}
		})
		if allocs != 0 {
			t.Errorf("%d-wire burst: %.1f allocs per pack, want 0", len(burst), allocs)
		}
	}
}

var packSink int

// BenchmarkPackFrames prices the packer on the two bursts that motivated
// it: a warmed scroll step (97 wires) and a 1280x1024 attach (5,120).
func BenchmarkPackFrames(b *testing.B) {
	for _, bc := range []struct {
		name  string
		burst [][]byte
	}{{"scroll97", scrollBurst(1)}, {"attach5120", attachBurst()}} {
		b.Run(bc.name, func(b *testing.B) {
			frame := make([]byte, 0, maxDatagram)
			var bytesIn int
			for _, w := range bc.burst {
				bytesIn += len(w)
			}
			b.SetBytes(int64(bytesIn))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for wires := bc.burst; len(wires) > 0; {
					d, n := protocol.PackFrame(frame, wires, maxDatagram)
					packSink += len(d)
					wires = wires[n:]
				}
			}
		})
	}
}
