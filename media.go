package slim

import (
	"slim/internal/server"
	"slim/internal/video"
)

// Ticker is implemented by applications that render on their own clock;
// the server's Tick (or a UDP listener's StartTicker) drives them.
type Ticker = server.Ticker

// VideoSource produces RGB frames with a modelled per-frame server cost.
// Next redraws one surface the source owns: a frame stays valid until the
// next call, so a caller that keeps one longer copies it.
type VideoSource = video.Source

// VideoApp is a session application that plays a video source via CSCS —
// the shape of the paper's ShowMeTV port (§7.1).
type VideoApp = video.App

// NewVideoApp returns a player rendering src into dst at fps.
func NewVideoApp(src VideoSource, dst Rect, format CSCSFormat, fps float64) *VideoApp {
	return video.NewApp(src, dst, format, fps)
}

// Synthetic video sources (§7): stored MPEG-II-style movie, live NTSC
// capture, and a Quake-style game renderer.
func NewMPEG2Source(seed uint64) VideoSource { return video.NewMPEG2(seed) }

// NewNTSCSource returns the §7.2 live-capture stand-in (640x240 fields).
func NewNTSCSource(seed uint64) VideoSource { return video.NewNTSC(seed) }

// NewQuakeSource returns the §7.3 game stand-in at the given resolution.
func NewQuakeSource(w, h int, seed uint64) VideoSource { return video.NewQuake(w, h, seed) }
