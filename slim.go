// Package slim is a Go implementation of SLIM — the Stateless, Low-level
// Interface Machine thin-client architecture of Schmidt, Lam & Northcutt
// (SOSP 1999), the design that shipped as the Sun Ray 1.
//
// A SLIM system consists of servers that run all applications and hold all
// state, stateless pixel consoles ("not much more intelligent than a frame
// buffer"), and a dedicated interconnect carrying a five-command pixel
// protocol: SET, BITMAP, FILL, COPY, and CSCS. This package is the public
// facade: it re-exports the protocol and rendering types and provides
// ready-to-run servers and consoles over UDP or an in-process fabric.
//
// Quick start:
//
//	fabric := slim.NewFabric()
//	srv := slim.NewServer(fabric, slim.WithTerminalApp())
//	srv.Auth.Register("card-1", "alice")
//	con, _ := slim.NewConsole(slim.ConsoleConfig{Width: 1024, Height: 768})
//	fabric.Attach("desk-1", con, srv)
//	fabric.Boot("desk-1", "card-1")
//	fabric.TypeString("desk-1", "hello, thin world\n")
//
// The internal packages implement the paper's full evaluation; the
// cmd/slimbench binary regenerates every table and figure.
package slim

import (
	"log/slog"

	"slim/internal/console"
	"slim/internal/core"
	"slim/internal/flow"
	"slim/internal/protocol"
	"slim/internal/server"
)

// Re-exported wire protocol types. See Table 1 of the paper.
type (
	// Rect is a rectangular screen region.
	Rect = protocol.Rect
	// Pixel is a 24-bit RGB pixel.
	Pixel = protocol.Pixel
	// Message is any SLIM protocol message.
	Message = protocol.Message
	// MsgType identifies a protocol message type.
	MsgType = protocol.MsgType
	// CSCSFormat selects a CSCS bit depth (16/12/8/6/5 bpp).
	CSCSFormat = protocol.CSCSFormat
)

// Re-exported rendering operations accepted by session encoders.
type (
	// Op is a rendering operation.
	Op = core.Op
	// FillOp paints a solid rectangle.
	FillOp = core.FillOp
	// TextOp draws a bicolor glyph bitmap.
	TextOp = core.TextOp
	// ImageOp blits literal pixels.
	ImageOp = core.ImageOp
	// ScrollOp moves a region (COPY).
	ScrollOp = core.ScrollOp
	// VideoOp ships a YUV frame via CSCS.
	VideoOp = core.VideoOp
	// Datagram is one framed protocol message.
	Datagram = core.Datagram
	// Encoder is the SLIM display driver.
	Encoder = core.Encoder
	// CostModel prices console decode work (Table 5).
	CostModel = core.CostModel
)

// Re-exported system components.
type (
	// Console is a SLIM desktop unit.
	Console = console.Console
	// ConsoleConfig parameterizes a console.
	ConsoleConfig = console.Config
	// Server hosts sessions and system services.
	Server = server.Server
	// Session is one user's persistent desktop.
	Session = server.Session
	// Application is a program driven by session input.
	Application = server.Application
	// Terminal is the built-in echo terminal application.
	Terminal = server.Terminal
)

// RGB assembles a pixel from components.
func RGB(r, g, b uint8) Pixel { return protocol.RGB(r, g, b) }

// CSCS formats, named by bits per pixel.
const (
	CSCS16 = protocol.CSCS16
	CSCS12 = protocol.CSCS12
	CSCS8  = protocol.CSCS8
	CSCS6  = protocol.CSCS6
	CSCS5  = protocol.CSCS5
)

// NewConsole returns a SLIM console.
func NewConsole(cfg ConsoleConfig) (*Console, error) { return console.New(cfg) }

// A console's STATUS cadence; the rule is internal/console/status.go.
const (
	StatusInterval = console.StatusInterval
	StatusAckDelay = console.StatusAckDelay
)

// NewEncoder returns a stand-alone display encoder managing a w×h frame
// buffer (most callers get one per session via NewServer instead).
func NewEncoder(w, h int) *Encoder { return core.NewEncoder(w, h) }

// SunRay1Costs returns the published Sun Ray 1 decode cost model.
func SunRay1Costs() *CostModel { return core.SunRay1Costs() }

// NewTerminal returns the built-in glyph terminal application.
func NewTerminal(w, h int) *Terminal { return server.NewTerminal(w, h) }

// AppFactory builds a session's application.
type AppFactory = func(user string, w, h int) Application

// WithTerminalApp is the default application factory: every session runs
// the echo terminal.
func WithTerminalApp() AppFactory {
	return func(user string, w, h int) Application { return server.NewTerminal(w, h) }
}

// ServerOption configures a server built by NewServer (or the UDP
// listeners, which forward their options).
type ServerOption = server.Option

// FlowConfig parameterizes the per-session send governor — see
// WithFlowControl and internal/flow.
type FlowConfig = flow.Config

// WithFlowControl enables the grant-driven send governor (§7) on every
// session: display traffic paces to the console's bandwidth grant through
// one token bucket, a paint is sent in the call that drew it when the
// bucket can take it and owed rather than encoded when it cannot, and
// everything a session owes its console — such a paint, loss recovery, a
// hotdesk repaint — leaves through the same bucket in pieces its tokens
// cover, drawn from the frame buffer as it is then, so nothing is queued
// and no storm of NACKs starves fresh paints. The zero FlowConfig takes
// throughput-matched defaults from the published Sun Ray 1 cost model
// (Table 5).
func WithFlowControl(cfg FlowConfig) ServerOption { return server.WithFlowControl(cfg) }

// DefaultTileCacheEntries is the dirty-tile cache capacity the gen-2
// codec's capability bit implies; a console arms its cache by setting
// ConsoleConfig.TileCacheEntries to this value, the only nonzero one
// NewConsole accepts.
const DefaultTileCacheEntries = core.DefaultTileCacheEntries

// WithCodec2 arms the gen-2 encoder: content-typed tiles plus the
// hash-keyed dirty-tile cache. Engages per attachment, only for consoles
// that advertise the CACHE_PAINT capability (ConsoleConfig.
// TileCacheEntries > 0); everyone else keeps the gen-1 command stream.
func WithCodec2() ServerOption { return server.WithCodec2() }

// WithTelemetry points the server at the telemetry kit k instead of the
// process-wide one (Telemetry()): the registry its metrics publish into,
// and the flight recorder, SLO tracker and path estimator its sessions
// record into. NewTelemetry builds a private kit; its path estimator must
// still be armed with k.NetQual.SetEnabled.
func WithTelemetry(k *TelemetryKit) ServerOption { return server.WithTelemetry(k) }

// WithLogger attaches a structured logger for session lifecycle events
// (attach, detach, terminate, auth failure, recovery repaint). Nil keeps
// the server silent; datagram paths never log either way.
func WithLogger(l *slog.Logger) ServerOption { return server.WithLogger(l) }

// NewServer returns a SLIM server sending through the given transport.
// Options configure flow control and observability; none are required.
func NewServer(t Transport, newApp AppFactory, opts ...ServerOption) *Server {
	return server.New(t, newApp, opts...)
}
