//go:build !amd64 || purego

package bbcrypto

import "crypto/cipher"

// Schedule is an expanded AES-128 encryption key. This is the portable
// form: it wraps the crypto/aes cipher, so Expand allocates; the amd64 form
// (aes128_amd64.go) keeps the round keys inline and allocates nothing.
// The zero value is not a usable key; call Expand first.
//
//bb:secret
type Schedule struct {
	blk cipher.Block
}

// Expand overwrites s with the encryption schedule of key.
func (s *Schedule) Expand(key *Block) { s.blk = NewAES(*key) }

// Encrypt sets *dst to the AES encryption of *src under the expanded key;
// dst and src may be the same block.
func (s *Schedule) Encrypt(dst, src *Block) { s.blk.Encrypt(dst[:], src[:]) }

// permuteXor4 sets dst[i] to π(k[i]) ⊕ k[i], π the encryption under s and
// every block in words (Block.Words). dst and k may be the same array.
func (s *Schedule) permuteXor4(dst, k *[4][2]uint64) { permuteXor4Blocks(s, dst, k) }

// Expand4 is Expand four keys wide: *s[i] becomes the schedule of keys[i].
// The amd64 kernel interleaves the four; this form loops.
func Expand4(s *[4]*Schedule, keys *[4]Block) {
	for i, si := range s {
		si.Expand(&keys[i])
	}
}

// Encrypt4 is Encrypt four blocks wide: dst[i] becomes the encryption of
// src[i] under *s[i]. dst and src may be the same array, and the schedules
// need not be distinct.
func Encrypt4(s *[4]*Schedule, dst, src *[4]Block) {
	for i, si := range s {
		si.Encrypt(&dst[i], &src[i])
	}
}
