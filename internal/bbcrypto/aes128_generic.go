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
