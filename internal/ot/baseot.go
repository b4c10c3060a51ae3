// Package ot implements 1-out-of-2 oblivious transfer: batched Chou–Orlandi
// base OTs over P-256 and the IKNP OT extension, replacing the OTExtension
// library the paper's prototype links against (§6). Rule preparation uses
// OT so the middlebox obtains the wire labels for its rule bits without the
// endpoints learning the rules and without the middlebox learning the other
// labels (§3.3).
//
// The protocols are secure against semi-honest parties, matching the
// paper's threat model (the middlebox "performs the detection honestly, but
// ... tries to learn private data", §2.2.2).
package ot

import (
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/bbcrypto"
)

// Block is the 16-byte message unit transferred by OT (wire labels).
type Block = bbcrypto.Block

var curve = elliptic.P256()

// pointSize is the byte length of an uncompressed P-256 point.
const pointSize = 65

// CountError reports an OT message with the wrong number of entries — what
// a peer speaking another version of the protocol sends, for example one
// base point per base OT instead of one per batch.
type CountError struct {
	// What names the message.
	What string
	// Got and Want are the received and the expected counts.
	Got, Want int
}

// Error names the message and both counts.
func (e *CountError) Error() string {
	return fmt.Sprintf("ot: %d %s, want %d", e.Got, e.What, e.Want)
}

var errBadPoint = errors.New("ot: invalid P-256 point")

// baseSender is the sender side of a batch of base OTs (Chou–Orlandi,
// LATINCRYPT 2015): one point A = aG serves every OT of the batch, and
// T = aA is computed once. Base OT i derives k0 = H(i, A, Bᵢ, aBᵢ) and
// k1 = H(i, A, Bᵢ, aBᵢ − T) from the receiver's point Bᵢ.
type baseSender struct {
	//bb:secret
	a    []byte // the secret scalar
	msgA []byte // A, uncompressed
	//bb:secret
	tx, negTy *big.Int // −T, ready to add
}

// newBaseSender draws a and returns the sender with its one message, A.
func newBaseSender() (*baseSender, []byte, error) {
	a, ax, ay, err := elliptic.GenerateKey(curve, rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	tx, ty := curve.ScalarMult(ax, ay, a)
	negTy := new(big.Int).Sub(curve.Params().P, ty)
	msgA := elliptic.Marshal(curve, ax, ay)
	return &baseSender{a: a, msgA: msgA, tx: tx, negTy: negTy}, msgA, nil
}

// keys derives both keys of base OT i from the receiver's point Bᵢ. The
// receiver can compute exactly one: aBᵢ = bᵢA when Bᵢ = bᵢG, and
// aBᵢ − T = bᵢA when Bᵢ = A + bᵢG.
func (s *baseSender) keys(i int, msgB []byte) (k0, k1 Block, err error) {
	bx, by := elliptic.Unmarshal(curve, msgB)
	if bx == nil {
		return Block{}, Block{}, errBadPoint
	}
	px, py := curve.ScalarMult(bx, by, s.a)
	k0 = keyHash(i, s.msgA, msgB, px, py)
	px, py = curve.Add(px, py, s.tx, s.negTy)
	return k0, keyHash(i, s.msgA, msgB, px, py), nil
}

// baseReceive plays the receiver of base OT i with the given choice (0 or
// 1) against the sender's point A, already checked to be on the curve. It
// returns Bᵢ and the key k_choice. Both candidate points are computed and
// one is selected in constant time: the choices are the IKNP sender's
// secret s.
//
//bb:secret choice
func baseReceive(i, choice int, ax, ay *big.Int, msgA []byte) (msgB []byte, k Block, err error) {
	b, bx, by, err := elliptic.GenerateKey(curve, rand.Reader)
	if err != nil {
		return nil, Block{}, err
	}
	cx, cy := curve.Add(bx, by, ax, ay)
	msgB = elliptic.Marshal(curve, bx, by)
	subtle.ConstantTimeCopy(choice, msgB, elliptic.Marshal(curve, cx, cy))
	px, py := curve.ScalarMult(ax, ay, b)
	return msgB, keyHash(i, msgA, msgB, px, py), nil
}

// keyHash is the base-OT key derivation H(i, A, B, P): SHA-256 over the
// index, both transcript points and the shared point, truncated to a Block.
// Binding i and B keeps one B reused at two indices from yielding one key.
func keyHash(i int, msgA, msgB []byte, px, py *big.Int) Block {
	var buf [4 + 3*pointSize]byte
	binary.BigEndian.PutUint32(buf[:], uint32(i))
	copy(buf[4:], msgA)
	copy(buf[4+pointSize:], msgB)
	p := buf[4+2*pointSize:]
	p[0] = 4 // uncompressed, as elliptic.Marshal writes it
	px.FillBytes(p[1:33])
	py.FillBytes(p[33:])
	sum := sha256.Sum256(buf[:])
	return Block(sum[:bbcrypto.BlockSize])
}
