// Package pcapio reads and writes classic libpcap capture files
// (the tcpdump format), so synthetic BlindBox traces can be exchanged with
// standard tooling — the paper's accuracy experiment replays exactly such
// a capture (the ICTF 2010 trace).
package pcapio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/packet"
)

// magicLE is the little-endian pcap magic with microsecond timestamps.
const magicLE = 0xa1b2c3d4

// LinkTypeEthernet is the pcap link type for Ethernet frames.
const LinkTypeEthernet = 1

// maxSnapLen caps packet records.
const maxSnapLen = 1 << 18

// Packet is one captured record.
type Packet struct {
	// TimestampSec/TimestampMicro hold the capture time.
	TimestampSec   uint32
	TimestampMicro uint32
	// Data is the link-layer frame.
	Data []byte
}

// Writer emits a pcap stream.
type Writer struct {
	w io.Writer
}

// NewWriter writes the global header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicLE)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // minor
	binary.LittleEndian.PutUint32(hdr[16:20], maxSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: w}, nil
}

// WritePacket appends one record.
func (w *Writer) WritePacket(p Packet) error {
	if len(p.Data) > maxSnapLen {
		return fmt.Errorf("pcapio: packet of %d bytes exceeds snap length", len(p.Data))
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], p.TimestampSec)
	binary.LittleEndian.PutUint32(hdr[4:8], p.TimestampMicro)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(p.Data)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(p.Data)
	return err
}

// Reader parses a pcap stream.
type Reader struct {
	r         io.Reader
	byteOrder binary.ByteOrder
	// LinkType is the capture's link type from the global header.
	LinkType uint32
}

// NewReader validates the global header.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapio: reading global header: %w", err)
	}
	rd := &Reader{r: r}
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case magicLE:
		rd.byteOrder = binary.LittleEndian
	default:
		if binary.BigEndian.Uint32(hdr[0:4]) == magicLE {
			rd.byteOrder = binary.BigEndian
		} else {
			return nil, errors.New("pcapio: bad magic")
		}
	}
	rd.LinkType = rd.byteOrder.Uint32(hdr[20:24])
	return rd, nil
}

// ReadPacket returns the next record, or io.EOF at end of capture.
func (r *Reader) ReadPacket() (Packet, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, err
	}
	caplen := r.byteOrder.Uint32(hdr[8:12])
	if caplen > maxSnapLen {
		return Packet{}, fmt.Errorf("pcapio: record of %d bytes exceeds snap length", caplen)
	}
	p := Packet{
		TimestampSec:   r.byteOrder.Uint32(hdr[0:4]),
		TimestampMicro: r.byteOrder.Uint32(hdr[4:8]),
		Data:           make([]byte, caplen),
	}
	if _, err := io.ReadFull(r.r, p.Data); err != nil {
		return Packet{}, fmt.Errorf("pcapio: truncated record: %w", err)
	}
	return p, nil
}

// ReadAll drains the capture.
func (r *Reader) ReadAll() ([]Packet, error) {
	var out []Packet
	for {
		p, err := r.ReadPacket()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
}

// ReadTCPFlows reads a capture to its end: it parses every IPv4/TCP frame,
// verifying its checksums, skips every other frame, and reassembles the
// TCP streams. It returns each flow's key and payload in first-seen order
// and the number of TCP packets read.
func ReadTCPFlows(r io.Reader) (keys []packet.FlowKey, payloads [][]byte, packets int, err error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, nil, 0, err
	}
	asm := packet.NewAssembler()
	for {
		p, err := rd.ReadPacket()
		if err == io.EOF {
			keys, payloads = asm.Flows()
			return keys, payloads, packets, nil
		}
		if err != nil {
			return nil, nil, 0, err
		}
		seg, err := packet.Unmarshal(p.Data)
		if errors.Is(err, packet.ErrNotTCP) {
			continue
		}
		if err != nil {
			return nil, nil, 0, err
		}
		asm.Add(seg)
		packets++
	}
}
