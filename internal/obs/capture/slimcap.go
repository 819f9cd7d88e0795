// The .slimcap wire-capture file format, version 1. The format is specified
// normatively in PROTOCOL.md ("Wire captures: the .slimcap format"); this
// file is the reference implementation. All integers are big-endian, like
// the SLIM wire protocol itself.
//
//	header:  "SLCP" (4) | version u8 | domain u8 | flags u16 | epoch i64
//	record:  t i64 | dir u8 | flow i32 | size u32 | wireLen u32 |
//	         consoleLen u8 | console bytes | wire bytes
//
// t is nanoseconds in the capture's clock domain (wall: obs.Wall, the
// timeline flight events are on; sim: virtual time). epoch is the
// wall-clock unix-nano instant of t=0, or 0 when the domain has no wall
// anchor. wireLen may be
// 0 with size > 0: a size-only record from a transport that models
// datagram sizes without carrying bytes (netsim).
package capture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"slim/internal/obs"
)

// Slimcap format constants.
const (
	// Magic opens every .slimcap file: how a reader tells a capture from
	// the other evidence files (breach dumps are JSON).
	Magic          = "SLCP"
	SlimcapVersion = 1

	headerLen       = 4 + 1 + 1 + 2 + 8
	recordFixedLen  = 8 + 1 + 4 + 4 + 4 + 1
	maxWireLen      = 1 << 20 // sanity bound when reading untrusted files
	domainCodeWall  = 1
	domainCodeSim   = 2
	domainCodeOther = 0
)

// Header describes a .slimcap capture file.
type Header struct {
	Version uint8
	Domain  obs.Domain
	// Epoch is the wall-clock instant of record time zero; the zero Time
	// when the capture's clock has no wall anchor (simulated domains).
	Epoch time.Time
}

func domainCode(d obs.Domain) uint8 {
	switch d {
	case obs.DomainWall:
		return domainCodeWall
	case obs.DomainSim:
		return domainCodeSim
	}
	return domainCodeOther
}

func codeDomain(c uint8) obs.Domain {
	switch c {
	case domainCodeWall:
		return obs.DomainWall
	case domainCodeSim:
		return obs.DomainSim
	}
	return obs.Domain("unknown")
}

// WriteHeader writes the .slimcap file header. Records appended afterwards
// (AppendRecord, Ring.SpoolTo) complete the file; there is no trailer, so a
// capture truncated by a crash is readable up to the last whole record.
func WriteHeader(w io.Writer, domain obs.Domain, epoch time.Time) error {
	var buf [headerLen]byte
	copy(buf[0:4], Magic)
	buf[4] = SlimcapVersion
	buf[5] = domainCode(domain)
	binary.BigEndian.PutUint16(buf[6:8], 0) // flags, reserved
	var e int64
	if !epoch.IsZero() {
		e = epoch.UnixNano()
	}
	binary.BigEndian.PutUint64(buf[8:16], uint64(e))
	_, err := w.Write(buf[:])
	return err
}

// AppendRecord appends the wire encoding of one record to dst.
func AppendRecord(dst []byte, rec Record) []byte {
	console := rec.Console
	if len(console) > 255 {
		console = console[:255]
	}
	var fixed [recordFixedLen]byte
	binary.BigEndian.PutUint64(fixed[0:8], uint64(rec.T.Nanoseconds()))
	fixed[8] = uint8(rec.Dir)
	binary.BigEndian.PutUint32(fixed[9:13], uint32(rec.Flow))
	binary.BigEndian.PutUint32(fixed[13:17], uint32(rec.Size))
	binary.BigEndian.PutUint32(fixed[17:21], uint32(len(rec.Wire)))
	fixed[21] = uint8(len(console))
	dst = append(dst, fixed[:]...)
	dst = append(dst, console...)
	dst = append(dst, rec.Wire...)
	return dst
}

// ErrBadCapture reports a malformed .slimcap file.
var ErrBadCapture = errors.New("capture: malformed .slimcap file")

// ReadHeader reads and validates a .slimcap header.
func ReadHeader(r io.Reader) (Header, error) {
	var buf [headerLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Header{}, fmt.Errorf("%w: short header: %v", ErrBadCapture, err)
	}
	if string(buf[0:4]) != Magic {
		return Header{}, fmt.Errorf("%w: bad magic %q", ErrBadCapture, buf[0:4])
	}
	h := Header{Version: buf[4], Domain: codeDomain(buf[5])}
	if h.Version != SlimcapVersion {
		return Header{}, fmt.Errorf("%w: unsupported version %d", ErrBadCapture, h.Version)
	}
	if e := int64(binary.BigEndian.Uint64(buf[8:16])); e != 0 {
		h.Epoch = time.Unix(0, e)
	}
	return h, nil
}

// ReadRecord reads the next record. Returns io.EOF cleanly at end of file;
// a record truncated mid-way returns ErrBadCapture.
func ReadRecord(r io.Reader) (Record, error) {
	var fixed [recordFixedLen]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: truncated record: %v", ErrBadCapture, err)
	}
	rec := Record{
		T:    time.Duration(binary.BigEndian.Uint64(fixed[0:8])),
		Dir:  Direction(fixed[8]),
		Flow: int32(binary.BigEndian.Uint32(fixed[9:13])),
		Size: int(binary.BigEndian.Uint32(fixed[13:17])),
	}
	if rec.T < 0 {
		return Record{}, fmt.Errorf("%w: negative timestamp %d", ErrBadCapture, rec.T)
	}
	wireLen := binary.BigEndian.Uint32(fixed[17:21])
	consoleLen := int(fixed[21])
	if wireLen > maxWireLen {
		return Record{}, fmt.Errorf("%w: wire length %d exceeds %d", ErrBadCapture, wireLen, maxWireLen)
	}
	if consoleLen > 0 {
		console := make([]byte, consoleLen)
		if _, err := io.ReadFull(r, console); err != nil {
			return Record{}, fmt.Errorf("%w: truncated console: %v", ErrBadCapture, err)
		}
		rec.Console = string(console)
	}
	if wireLen > 0 {
		rec.Wire = make([]byte, wireLen)
		if _, err := io.ReadFull(r, rec.Wire); err != nil {
			return Record{}, fmt.Errorf("%w: truncated wire bytes: %v", ErrBadCapture, err)
		}
	}
	return rec, nil
}

// ReadCapture reads a whole .slimcap stream: header plus every record.
func ReadCapture(r io.Reader) (Header, []Record, error) {
	h, err := ReadHeader(r)
	if err != nil {
		return Header{}, nil, err
	}
	var recs []Record
	for {
		rec, err := ReadRecord(r)
		if err == io.EOF {
			return h, recs, nil
		}
		if err != nil {
			return h, recs, err
		}
		recs = append(recs, rec)
	}
}
