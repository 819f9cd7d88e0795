// Package audio implements the SLIM audio path (§2.2): the server streams
// raw PCM blocks to the console inside Audio protocol messages, and the
// console plays them through a small jitter buffer. The multimedia
// applications of §7 "transmit synchronized audio" alongside their video;
// this package supplies that stream and accounts for its bandwidth.
package audio

import (
	"fmt"
	"math"
	"time"

	"slim/internal/protocol"
)

// CD-quality defaults: the Sun Ray 1 carried uncompressed 16-bit PCM.
const (
	DefaultRate     = 44100
	DefaultChannels = 2
	// BlockDuration is the audio shipped per protocol message. 10 ms
	// blocks keep datagrams under the MTU at CD quality.
	BlockDuration = 10 * time.Millisecond
)

// BytesPerSecond reports the stream's raw bandwidth.
func BytesPerSecond(rate int, channels int) int { return rate * channels * 2 }

// Source produces PCM sample frames (int16 per channel).
type Source interface {
	// Read fills dst with interleaved samples and reports frames written.
	Read(dst []int16) int
	Rate() int
	Channels() int
}

// ToneSource synthesizes a sine tone — the test and demo signal.
type ToneSource struct {
	Freq       float64
	SampleRate int
	phase      float64
}

// NewTone returns a sine source at the given frequency.
func NewTone(freq float64) *ToneSource {
	return &ToneSource{Freq: freq, SampleRate: DefaultRate}
}

// Rate implements Source.
func (s *ToneSource) Rate() int { return s.SampleRate }

// Channels implements Source.
func (s *ToneSource) Channels() int { return DefaultChannels }

// Read implements Source.
func (s *ToneSource) Read(dst []int16) int {
	step := 2 * math.Pi * s.Freq / float64(s.SampleRate)
	frames := len(dst) / DefaultChannels
	for i := 0; i < frames; i++ {
		v := int16(20000 * math.Sin(s.phase))
		for c := 0; c < DefaultChannels; c++ {
			dst[i*DefaultChannels+c] = v
		}
		s.phase += step
		if s.phase > 2*math.Pi {
			s.phase -= 2 * math.Pi
		}
	}
	return frames
}

// Streamer packetizes a source into Audio protocol messages.
type Streamer struct {
	src Source
	seq *protocol.Sequencer
	buf []int16
}

// NewStreamer wraps a source with the given session sequencer.
func NewStreamer(src Source, seq *protocol.Sequencer) *Streamer {
	frames := src.Rate() * int(BlockDuration) / int(time.Second)
	return &Streamer{src: src, seq: seq, buf: make([]int16, frames*src.Channels())}
}

// NextBlock produces one BlockDuration worth of audio as a framed
// datagram plus its message.
func (s *Streamer) NextBlock() (wire []byte, msg *protocol.Audio) {
	n := s.src.Read(s.buf)
	samples := make([]byte, 2*n*s.src.Channels())
	for i := 0; i < n*s.src.Channels(); i++ {
		v := uint16(s.buf[i])
		samples[2*i] = byte(v)
		samples[2*i+1] = byte(v >> 8)
	}
	msg = &protocol.Audio{
		SampleRate: uint32(s.src.Rate()),
		Channels:   uint8(s.src.Channels()),
		Samples:    samples,
	}
	return protocol.Encode(nil, s.seq.Next(), msg), msg
}

// BlockWireBytes reports one block's datagram size.
func (s *Streamer) BlockWireBytes() int {
	frames := s.src.Rate() * int(BlockDuration) / int(time.Second)
	return protocol.HeaderSize + 5 + 2*frames*s.src.Channels()
}

// Sink is the console-side jitter buffer: blocks arrive with network
// jitter, the DAC drains at exactly real time, and the sink reports
// underruns (audible dropouts).
type Sink struct {
	// Depth is the target buffering before playback starts.
	Depth time.Duration

	rate      int
	channels  int
	buffered  time.Duration // queued audio
	playingAt time.Duration // model time playback position was updated
	started   bool
	underruns int
	received  int
}

// NewSink returns a sink with the given jitter-buffer depth.
func NewSink(depth time.Duration) *Sink {
	return &Sink{Depth: depth}
}

// Submit delivers one audio message at model time now.
func (k *Sink) Submit(msg *protocol.Audio, now time.Duration) error {
	if msg.Channels == 0 || msg.SampleRate == 0 {
		return fmt.Errorf("audio: malformed block")
	}
	if k.rate == 0 {
		k.rate = int(msg.SampleRate)
		k.channels = int(msg.Channels)
		k.playingAt = now
	}
	k.drain(now)
	frames := len(msg.Samples) / 2 / k.channels
	k.buffered += time.Duration(frames) * time.Second / time.Duration(k.rate)
	k.received++
	if !k.started && k.buffered >= k.Depth {
		k.started = true
	}
	return nil
}

// drain advances playback to model time now.
func (k *Sink) drain(now time.Duration) {
	if !k.started {
		k.playingAt = now
		return
	}
	elapsed := now - k.playingAt
	k.playingAt = now
	if elapsed <= 0 {
		return
	}
	if elapsed > k.buffered {
		k.underruns++
		k.buffered = 0
		k.started = false // rebuffer
		return
	}
	k.buffered -= elapsed
}

// Stats reports blocks received and underruns at model time now.
func (k *Sink) Stats(now time.Duration) (received, underruns int) {
	k.drain(now)
	return k.received, k.underruns
}
