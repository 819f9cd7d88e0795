package core

import (
	"fmt"
	"time"

	"slim/internal/obs"
	"slim/internal/protocol"
)

// EncoderMetrics mirrors CommandStats into the live obs registry so the
// Figure 4/8 accounting — commands, wire bytes, and pixels per Table 1
// command — is visible while the system runs, not only in post-run
// reports. Metric pointers are resolved once here; the encoder's emit path
// then pays only a handful of atomic adds per command.
//
// An encoder with a nil *EncoderMetrics is completely uninstrumented
// (the experiment harness constructs thousands of throwaway encoders and
// must not pay even the atomics); the live server attaches metrics to
// every session encoder it creates.
type EncoderMetrics struct {
	// Per display command type, indexed by protocol.MsgType. The arrays
	// span the full display range including the gen-2 CACHE_PAINT.
	commands  [protocol.TypeCachePaint + 1]*obs.Counter
	wireBytes [protocol.TypeCachePaint + 1]*obs.Counter
	pixels    [protocol.TypeCachePaint + 1]*obs.Counter
	// encodeSeconds tracks wall time spent lowering one Op to datagrams.
	encodeSeconds *obs.Histogram
	// The slim_codec2_* family: gen-2 tile-cache effectiveness. Hit
	// ratio is hits / (hits + misses); bytes saved are measured against
	// a literal re-send of the hit tiles.
	codec2Hits       *obs.Counter
	codec2Misses     *obs.Counter
	codec2SavedBytes *obs.Counter
	codec2Evictions  *obs.Counter
	codec2Tiles      [numTileClasses]*obs.Counter
}

// NewEncoderMetrics resolves the encoder metric family in r.
func NewEncoderMetrics(r *obs.Registry) *EncoderMetrics {
	m := &EncoderMetrics{encodeSeconds: r.Histogram("slim_encode_seconds")}
	for t := protocol.TypeSet; t <= protocol.TypeCSCS; t++ {
		m.resolveType(r, t)
	}
	m.resolveType(r, protocol.TypeCachePaint)
	m.codec2Hits = r.Counter("slim_codec2_cache_hits_total")
	m.codec2Misses = r.Counter("slim_codec2_cache_misses_total")
	m.codec2SavedBytes = r.Counter("slim_codec2_bytes_saved_total")
	m.codec2Evictions = r.Counter("slim_codec2_evictions_total")
	for c := TileClass(0); c < numTileClasses; c++ {
		m.codec2Tiles[c] = r.Counter(fmt.Sprintf("slim_codec2_tiles_total{class=%q}", c.String()))
	}
	return m
}

func (m *EncoderMetrics) resolveType(r *obs.Registry, t protocol.MsgType) {
	label := fmt.Sprintf("{type=%q}", t.String())
	m.commands[t] = r.Counter("slim_encoder_commands_total" + label)
	m.wireBytes[t] = r.Counter("slim_encoder_wire_bytes_total" + label)
	m.pixels[t] = r.Counter("slim_encoder_pixels_total" + label)
}

// Record accounts for one outgoing display command; it is the live twin of
// CommandStats.Record. Nil receivers are inert.
func (m *EncoderMetrics) Record(msg protocol.Message) {
	if m == nil {
		return
	}
	t := msg.Type()
	if int(t) >= len(m.commands) || m.commands[t] == nil {
		return
	}
	m.commands[t].Inc()
	m.wireBytes[t].Add(int64(protocol.WireSize(msg)))
	m.pixels[t].Add(int64(PixelsOf(msg)))
}

// ObserveEncode records the wall time of one Encode call.
func (m *EncoderMetrics) ObserveEncode(d time.Duration) {
	if m == nil {
		return
	}
	m.encodeSeconds.Observe(d)
}
