package middlebox

import (
	"encoding/binary"
	"slices"
)

// maxPendingBytes bounds the data records one Protocol III flow holds
// while it waits for its key: 255 full data records with their length
// prefixes.
const maxPendingBytes = 4 << 20

// lenPrefix is the length that precedes each record in a pendingRing.
const lenPrefix = 4

// pendingRing holds a flow's data records, oldest first, as a byte ring of
// length-prefixed records that grows to at most maxPendingBytes. The
// caller makes room for a record by dropping the oldest ones (fits,
// dropOldest) before it pushes it.
type pendingRing struct {
	buf  []byte
	head int // where the oldest record's length prefix starts
	used int // bytes held, length prefixes included
}

// fits reports whether a record of n bytes fits beside the held ones.
func (r *pendingRing) fits(n int) bool { return r.used+lenPrefix+n <= maxPendingBytes }

// push appends rec; the caller has checked that it fits.
func (r *pendingRing) push(rec []byte) {
	if need := r.used + lenPrefix + len(rec); need > len(r.buf) {
		r.grow(need)
	}
	var hdr [lenPrefix]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(rec)))
	r.write(hdr[:])
	r.write(rec)
}

// dropOldest discards the oldest record and returns its length.
func (r *pendingRing) dropOldest() int {
	n := r.readLen()
	r.head = (r.head + n) % len(r.buf)
	r.used -= n
	return n
}

// pop removes the oldest record and returns it in dst's storage, which
// grows to fit it.
func (r *pendingRing) pop(dst []byte) []byte {
	n := r.readLen()
	dst = slices.Grow(dst[:0], n)[:n]
	r.read(dst)
	return dst
}

func (r *pendingRing) readLen() int {
	var hdr [lenPrefix]byte
	r.read(hdr[:])
	return int(binary.BigEndian.Uint32(hdr[:]))
}

// read consumes len(dst) bytes from the head of the ring into dst.
func (r *pendingRing) read(dst []byte) {
	n := copy(dst, r.buf[r.head:])
	copy(dst[n:], r.buf)
	r.head = (r.head + len(dst)) % len(r.buf)
	r.used -= len(dst)
}

// write appends p behind the held bytes, wrapping at the end of buf.
func (r *pendingRing) write(p []byte) {
	at := (r.head + r.used) % len(r.buf)
	n := copy(r.buf[at:], p)
	copy(r.buf, p[n:])
	r.used += len(p)
}

// grow re-lays the held bytes from offset 0 of a buffer of at least need
// bytes: double the old one, capped at maxPendingBytes.
func (r *pendingRing) grow(need int) {
	old := *r
	r.buf = make([]byte, min(max(2*len(old.buf), need), maxPendingBytes))
	r.head = 0
	if old.used > 0 {
		old.read(r.buf[:old.used])
	}
}
