//go:build amd64 && !purego

package bbcrypto

import "crypto/aes"

// Schedule is an expanded AES-128 encryption key in caller-owned memory:
// the 11 round keys, 176 bytes, no pointer inside. Unlike the cipher.Block
// of NewAES it lives wherever its owner puts it — in an array of thousands
// (the DPIEnc schedule cache) or on the stack — so keying AES costs no heap
// allocation. The zero value is not a usable key; call Expand first.
//
// AES runs on AES-NI, so it is constant-time in the key. On an amd64 CPU
// without AES-NI the schedule keeps only the raw key and every Encrypt goes
// through crypto/aes: slow, but never a table-lookup AES of our own.
//
//bb:secret
type Schedule struct {
	rk [176]byte
}

// useAESNI is the CPUID feature check guarding the assembly kernel.
var useAESNI = cpuHasAESNI()

// Expand overwrites s with the encryption schedule of key.
func (s *Schedule) Expand(key *Block) {
	if useAESNI {
		expand128((*[BlockSize]byte)(key), &s.rk)
		return
	}
	copy(s.rk[:BlockSize], key[:])
}

// Encrypt sets *dst to the AES encryption of *src under the expanded key;
// dst and src may be the same block.
func (s *Schedule) Encrypt(dst, src *Block) {
	if useAESNI {
		encrypt128(&s.rk, (*[BlockSize]byte)(dst), (*[BlockSize]byte)(src))
		return
	}
	s.encryptNoAESNI(dst, src)
}

// encryptNoAESNI copies through locals so that only they, not the caller's
// blocks, escape through the cipher.Block interface: with AES-NI present the
// callers' blocks must be able to stay on the stack.
func (s *Schedule) encryptNoAESNI(dst, src *Block) {
	key, in := [BlockSize]byte(s.rk[:BlockSize]), *src
	var out Block
	must(aes.NewCipher(key[:])).Encrypt(out[:], in[:])
	*dst = out
}

// Expand4 is Expand four keys wide: *s[i] becomes the schedule of keys[i],
// with the four expansions' rounds interleaved. The four schedules must be
// distinct.
func Expand4(s *[4]*Schedule, keys *[4]Block) {
	if useAESNI {
		expand128x4(keys, s)
		return
	}
	for i, si := range s {
		si.Expand(&keys[i])
	}
}

// Encrypt4 is Encrypt four blocks wide: dst[i] becomes the encryption of
// src[i] under *s[i]. One AES round waits several cycles for the one before
// it; four independent blocks keep the AES unit busy meanwhile, so the four
// cost little more than one. dst and src may be the same array, and the
// schedules need not be distinct.
func Encrypt4(s *[4]*Schedule, dst, src *[4]Block) {
	if useAESNI {
		encrypt128x4(s, dst, src)
		return
	}
	for i, si := range s {
		si.encryptNoAESNI(&dst[i], &src[i])
	}
}

// permuteXor4 sets dst[i] to π(k[i]) ⊕ k[i], π the encryption under s and
// every block in words (Block.Words). dst and k may be the same array. On
// AES-NI the words go straight into the AES unit, byte-swapped there, with
// no Block in memory between.
func (s *Schedule) permuteXor4(dst, k *[4][2]uint64) {
	if useAESNI {
		permuteXor128x4(&s.rk, dst, k)
		return
	}
	permuteXor4Blocks(s, dst, k)
}

//go:noescape
func permuteXor128x4(rk *[176]byte, dst, k *[4][2]uint64)

//go:noescape
func expand128(key *[BlockSize]byte, rk *[176]byte)

//go:noescape
func expand128x4(keys *[4]Block, s *[4]*Schedule)

//go:noescape
func encrypt128(rk *[176]byte, dst, src *[BlockSize]byte)

//go:noescape
func encrypt128x4(s *[4]*Schedule, dst, src *[4]Block)

func cpuHasAESNI() bool
