// SPDY-like stream multiplexing over one BlindBox HTTPS connection.
//
// The paper concludes that BlindBox "is most fit for settings using long or
// persistent connections through SPDY-like protocols or tunneling" (§1,
// §10): connection setup costs minutes for large rulesets, so it must be
// amortized over many requests. Mux provides that setting: any number of
// logical bidirectional streams share a single Conn — one handshake, one
// rule preparation — while the middlebox continues to inspect every token.
//
// Framing is carried inside the encrypted data plane: each frame is a
// 9-byte header (stream id, flags, length) written as *binary* payload
// (creating a tokenizer segment break, so header bytes are never tokenized
// and never confuse detection) followed by the frame body written as text
// or binary payload. Keywords within one frame are always detectable;
// a keyword split across two frames is not (frames default to 16 KiB, so
// senders only split at large boundaries). This mirrors real BlindBox
// semantics: tokenization follows the byte stream the endpoint transmits.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// frame header: id(4) | flags(1) | length(4).
const frameHeaderLen = 9

// frame flags.
const (
	flagFIN    = 1 << 0 // sender half-closes the stream
	flagBinary = 1 << 1 // body is binary (untokenized) payload
)

// maxFrameBody bounds one frame's body.
const maxFrameBody = 16 << 10

// ErrMuxClosed is returned once the underlying connection is done.
var ErrMuxClosed = errors.New("transport: mux closed")

// Mux multiplexes logical streams over one BlindBox HTTPS connection.
type Mux struct {
	conn *Conn

	writeMu sync.Mutex

	mu      sync.Mutex
	cond    *sync.Cond
	streams map[uint32]*Stream
	nextID  uint32
	pending []*Stream // peer-opened streams awaiting Accept
	readErr error
	closed  bool // Close was called: Accept hands out nothing more
}

// NewMux wraps an established connection. The initiator (client) opens
// odd-numbered streams; the responder even-numbered, so both sides may
// Open without coordination.
func NewMux(conn *Conn, initiator bool) *Mux {
	m := &Mux{
		conn:    conn,
		streams: make(map[uint32]*Stream),
	}
	m.cond = sync.NewCond(&m.mu)
	if initiator {
		m.nextID = 1
	} else {
		m.nextID = 2
	}
	go m.readLoop()
	return m
}

// Open creates a new outgoing stream.
func (m *Mux) Open() (*Stream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.readErr != nil {
		return nil, m.readErr
	}
	id := m.nextID
	m.nextID += 2
	s := newStream(m, id)
	m.streams[id] = s
	return s, nil
}

// Accept returns the next stream opened by the peer.
func (m *Mux) Accept() (*Stream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		// A stream the peer opened may still sit in pending when Close
		// runs; after Close it must not come out. (A connection the peer
		// ended is different: what it opened before stays acceptable.)
		if m.closed {
			return nil, ErrMuxClosed
		}
		if len(m.pending) > 0 {
			s := m.pending[0]
			m.pending = m.pending[1:]
			return s, nil
		}
		if m.readErr != nil {
			err := m.readErr
			if err == io.EOF {
				err = ErrMuxClosed
			}
			return nil, err
		}
		m.cond.Wait()
	}
}

// Close closes the underlying connection and all streams.
func (m *Mux) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	err := m.conn.Close()
	m.fail(ErrMuxClosed)
	return err
}

// readLoop demultiplexes inbound frames to streams.
func (m *Mux) readLoop() {
	for {
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(m.conn, hdr[:]); err != nil {
			m.fail(err)
			return
		}
		id := binary.BigEndian.Uint32(hdr[0:4])
		flags := hdr[4]
		n := binary.BigEndian.Uint32(hdr[5:9])
		if n > maxFrameBody {
			m.fail(fmt.Errorf("transport: frame body %d exceeds cap", n))
			return
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(m.conn, body); err != nil {
			m.fail(err)
			return
		}

		m.mu.Lock()
		s := m.streams[id]
		if s == nil {
			s = newStream(m, id)
			m.streams[id] = s
			m.pending = append(m.pending, s)
			m.cond.Broadcast()
		}
		m.mu.Unlock()
		s.push(body, flags&flagFIN != 0)
	}
}

// fail propagates a fatal error to all streams and Accept.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.readErr == nil {
		m.readErr = err
		m.cond.Broadcast()
	}
	streams := make([]*Stream, 0, len(m.streams))
	for _, s := range m.streams {
		streams = append(streams, s)
	}
	m.mu.Unlock()
	for _, s := range streams {
		s.fail(err)
	}
}

// writeFrame sends one frame; the header goes through the binary
// (untokenized) path and the body through text or binary per kind.
func (m *Mux) writeFrame(id uint32, flags byte, body []byte, binaryBody bool) error {
	if binaryBody {
		flags |= flagBinary
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], id)
	hdr[4] = flags
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(body)))
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if _, err := m.conn.WriteBinary(hdr[:]); err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	if binaryBody {
		_, err := m.conn.WriteBinary(body)
		return err
	}
	_, err := m.conn.Write(body)
	return err
}

// Stream is one logical bidirectional flow.
type Stream struct {
	mux *Mux
	id  uint32

	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	remFIN bool
	err    error

	wroteFIN bool
}

func newStream(m *Mux, id uint32) *Stream {
	s := &Stream{mux: m, id: id}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// ID returns the stream identifier.
func (s *Stream) ID() uint32 { return s.id }

func (s *Stream) push(data []byte, fin bool) {
	s.mu.Lock()
	s.buf = append(s.buf, data...)
	if fin {
		s.remFIN = true
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *Stream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Read returns buffered stream data, blocking until data, FIN or error.
func (s *Stream) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.buf) == 0 {
		if s.remFIN {
			return 0, io.EOF
		}
		if s.err != nil {
			return 0, s.err
		}
		s.cond.Wait()
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

// Write sends text (tokenized, inspectable) payload on the stream,
// splitting into frames.
func (s *Stream) Write(p []byte) (int, error) { return s.write(p, false) }

// WriteBinary sends untokenized payload on the stream.
func (s *Stream) WriteBinary(p []byte) (int, error) { return s.write(p, true) }

func (s *Stream) write(p []byte, binaryBody bool) (int, error) {
	if s.wroteFIN {
		return 0, errors.New("transport: write on closed stream")
	}
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > maxFrameBody {
			n = maxFrameBody
		}
		if err := s.mux.writeFrame(s.id, 0, p[:n], binaryBody); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// Close half-closes the stream (sends FIN); reads may continue.
func (s *Stream) Close() error {
	if s.wroteFIN {
		return nil
	}
	s.wroteFIN = true
	return s.mux.writeFrame(s.id, flagFIN, nil, false)
}

var _ io.ReadWriteCloser = (*Stream)(nil)
