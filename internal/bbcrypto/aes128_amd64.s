//go:build amd64 && !purego

#include "textflag.h"

// RotWord(w3) in every column: byte indexes 13, 14, 15, 12, four times.
DATA rotw3<>+0(SB)/8, $0x0c0f0e0d0c0f0e0d
DATA rotw3<>+8(SB)/8, $0x0c0f0e0d0c0f0e0d
GLOBL rotw3<>(SB), (NOPTR+RODATA), $16

// The round constants 0x01 and 0x1b in every column; the others are these
// two shifted left.
DATA rcon01<>+0(SB)/8, $0x0000000100000001
DATA rcon01<>+8(SB)/8, $0x0000000100000001
GLOBL rcon01<>(SB), (NOPTR+RODATA), $16
DATA rcon1b<>+0(SB)/8, $0x0000001b0000001b
DATA rcon1b<>+8(SB)/8, $0x0000001b0000001b
GLOBL rcon1b<>(SB), (NOPTR+RODATA), $16

// One AES-128 key-expansion round on one lane: K holds the previous round
// key (w0 w1 w2 w3) and leaves holding the next; T and S are scratch. X12
// holds rotw3 and X13 the round constant in every column. PSHUFB puts
// RotWord(w3) in all four columns; on four equal columns ShiftRows is the
// identity, so AESENCLAST against X13 is SubWord(RotWord(w3)) ^ rcon in
// every column — the S-box runs inside the AES unit, with no table indexed
// by a key byte and none of AESKEYGENASSIST's microcode. Two shift-XORs turn
// K into its prefix XORs (w0, w0^w1, w0^w1^w2, w0^w1^w2^w3), and T completes
// the round.
#define EXPAND_LANE(K, T, S) \
	MOVO       K, T   \
	PSHUFB     X12, T \
	AESENCLAST X13, T \
	MOVO       K, S   \
	PSLLDQ     $4, S  \
	PXOR       S, K   \
	MOVO       K, S   \
	PSLLDQ     $8, S  \
	PXOR       S, K   \
	PXOR       T, K

// The round on lane 0 alone, and on four lanes whose dependency chains the
// CPU overlaps; the new round keys go to off(R8) … off(R11).
#define EXPAND_ROUND1(off) \
	EXPAND_LANE(X0, X4, X8) \
	MOVUPS X0, off(R8)

#define EXPAND_ROUND4(off) \
	EXPAND_LANE(X0, X4, X8)  \
	EXPAND_LANE(X1, X5, X9)  \
	EXPAND_LANE(X2, X6, X10) \
	EXPAND_LANE(X3, X7, X11) \
	MOVUPS X0, off(R8)       \
	MOVUPS X1, off(R9)       \
	MOVUPS X2, off(R10)      \
	MOVUPS X3, off(R11)

// The ten rounds: rcon doubles through 0x01 … 0x80, then 0x1b, 0x36.
#define EXPAND_ROUNDS(ROUND) \
	MOVOU rotw3<>(SB), X12  \
	MOVOU rcon01<>(SB), X13 \
	ROUND(16)               \
	PSLLL $1, X13           \
	ROUND(32)               \
	PSLLL $1, X13           \
	ROUND(48)               \
	PSLLL $1, X13           \
	ROUND(64)               \
	PSLLL $1, X13           \
	ROUND(80)               \
	PSLLL $1, X13           \
	ROUND(96)               \
	PSLLL $1, X13           \
	ROUND(112)              \
	PSLLL $1, X13           \
	ROUND(128)              \
	MOVOU rcon1b<>(SB), X13 \
	ROUND(144)              \
	PSLLL $1, X13           \
	ROUND(160)

// func expand128(key *[16]byte, rk *[176]byte)
// Requires: AES, SSSE3
TEXT ·expand128(SB), NOSPLIT, $0-16
	MOVQ   key+0(FP), AX
	MOVQ   rk+8(FP), R8
	MOVUPS (AX), X0
	MOVUPS X0, (R8)
	EXPAND_ROUNDS(EXPAND_ROUND1)
	RET

// func expand128x4(keys *[4]Block, s *[4]*Schedule)
// Requires: AES, SSSE3
TEXT ·expand128x4(SB), NOSPLIT, $0-16
	MOVQ   keys+0(FP), AX
	MOVQ   s+8(FP), BX
	MOVQ   0(BX), R8
	MOVQ   8(BX), R9
	MOVQ   16(BX), R10
	MOVQ   24(BX), R11
	MOVUPS 0(AX), X0
	MOVUPS 16(AX), X1
	MOVUPS 32(AX), X2
	MOVUPS 48(AX), X3
	MOVUPS X0, (R8)
	MOVUPS X1, (R9)
	MOVUPS X2, (R10)
	MOVUPS X3, (R11)
	EXPAND_ROUNDS(EXPAND_ROUND4)
	RET

// func encrypt128(rk *[176]byte, dst, src *[16]byte)
// Requires: AES, SSE2
TEXT ·encrypt128(SB), NOSPLIT, $0-24
	MOVQ       rk+0(FP), AX
	MOVQ       dst+8(FP), DX
	MOVQ       src+16(FP), BX
	MOVUPS     (BX), X0
	MOVUPS     (AX), X1
	PXOR       X1, X0
	MOVUPS     16(AX), X1
	AESENC     X1, X0
	MOVUPS     32(AX), X1
	AESENC     X1, X0
	MOVUPS     48(AX), X1
	AESENC     X1, X0
	MOVUPS     64(AX), X1
	AESENC     X1, X0
	MOVUPS     80(AX), X1
	AESENC     X1, X0
	MOVUPS     96(AX), X1
	AESENC     X1, X0
	MOVUPS     112(AX), X1
	AESENC     X1, X0
	MOVUPS     128(AX), X1
	AESENC     X1, X0
	MOVUPS     144(AX), X1
	AESENC     X1, X0
	MOVUPS     160(AX), X1
	AESENCLAST X1, X0
	MOVUPS     X0, (DX)
	RET

// One round of four blocks under four schedules. The round keys are loaded
// into registers first: a schedule sits at whatever 8-byte-aligned address
// its owner gave it, and AESENC with a memory operand faults on one that is
// not 16-byte aligned.
#define ENCRYPT_ROUND4(off, OP) \
	MOVUPS off(R8), X4  \
	MOVUPS off(R9), X5  \
	MOVUPS off(R10), X6 \
	MOVUPS off(R11), X7 \
	OP     X4, X0       \
	OP     X5, X1       \
	OP     X6, X2       \
	OP     X7, X3

// func encrypt128x4(s *[4]*Schedule, dst, src *[4]Block)
// Requires: AES, SSE2
TEXT ·encrypt128x4(SB), NOSPLIT, $0-24
	MOVQ   s+0(FP), AX
	MOVQ   dst+8(FP), DX
	MOVQ   src+16(FP), BX
	MOVQ   0(AX), R8
	MOVQ   8(AX), R9
	MOVQ   16(AX), R10
	MOVQ   24(AX), R11
	MOVUPS 0(BX), X0
	MOVUPS 16(BX), X1
	MOVUPS 32(BX), X2
	MOVUPS 48(BX), X3
	ENCRYPT_ROUND4(0, PXOR)
	ENCRYPT_ROUND4(16, AESENC)
	ENCRYPT_ROUND4(32, AESENC)
	ENCRYPT_ROUND4(48, AESENC)
	ENCRYPT_ROUND4(64, AESENC)
	ENCRYPT_ROUND4(80, AESENC)
	ENCRYPT_ROUND4(96, AESENC)
	ENCRYPT_ROUND4(112, AESENC)
	ENCRYPT_ROUND4(128, AESENC)
	ENCRYPT_ROUND4(144, AESENC)
	ENCRYPT_ROUND4(160, AESENCLAST)
	MOVUPS X0, 0(DX)
	MOVUPS X1, 16(DX)
	MOVUPS X2, 32(DX)
	MOVUPS X3, 48(DX)
	RET

// Reverses the bytes of each 8-byte half: turns a block's big-endian words,
// held as two little-endian uint64s, into the block's bytes, and back.
DATA bswapw<>+0(SB)/8, $0x0001020304050607
DATA bswapw<>+8(SB)/8, $0x08090a0b0c0d0e0f
GLOBL bswapw<>(SB), (NOPTR+RODATA), $16

// Lane X gets the block whose words sit at off(BX). The words come in with
// two 8-byte loads: the caller has just written them a word at a time, and
// one 16-byte load of two 8-byte stores would wait on store forwarding.
#define LOAD_WORDS(off, X) \
	MOVQ       off(BX), X    \
	MOVQ       off+8(BX), X4 \
	PUNPCKLQDQ X4, X         \
	PSHUFB     X12, X

// One round of four blocks under one schedule: its round key loaded once.
#define PERMUTE_ROUND4(off, OP) \
	MOVUPS off(AX), X4 \
	OP     X4, X0      \
	OP     X4, X1      \
	OP     X4, X2      \
	OP     X4, X3

// func permuteXor128x4(rk *[176]byte, dst, k *[4][2]uint64)
// Requires: AES, SSSE3
TEXT ·permuteXor128x4(SB), NOSPLIT, $0-24
	MOVQ  rk+0(FP), AX
	MOVQ  dst+8(FP), DX
	MOVQ  k+16(FP), BX
	MOVOU bswapw<>(SB), X12
	LOAD_WORDS(0, X0)
	LOAD_WORDS(16, X1)
	LOAD_WORDS(32, X2)
	LOAD_WORDS(48, X3)
	MOVO  X0, X8
	MOVO  X1, X9
	MOVO  X2, X10
	MOVO  X3, X11
	PERMUTE_ROUND4(0, PXOR)
	PERMUTE_ROUND4(16, AESENC)
	PERMUTE_ROUND4(32, AESENC)
	PERMUTE_ROUND4(48, AESENC)
	PERMUTE_ROUND4(64, AESENC)
	PERMUTE_ROUND4(80, AESENC)
	PERMUTE_ROUND4(96, AESENC)
	PERMUTE_ROUND4(112, AESENC)
	PERMUTE_ROUND4(128, AESENC)
	PERMUTE_ROUND4(144, AESENC)
	PERMUTE_ROUND4(160, AESENCLAST)
	PXOR   X8, X0
	PXOR   X9, X1
	PXOR   X10, X2
	PXOR   X11, X3
	PSHUFB X12, X0
	PSHUFB X12, X1
	PSHUFB X12, X2
	PSHUFB X12, X3
	MOVUPS X0, 0(DX)
	MOVUPS X1, 16(DX)
	MOVUPS X2, 32(DX)
	MOVUPS X3, 48(DX)
	RET

// func cpuHasAESNI() bool
// The kernel needs AES-NI (CPUID.1:ECX bit 25) and, for the key expansion's
// PSHUFB, SSSE3 (bit 9); no CPU has the first without the second, and both
// are checked.
TEXT ·cpuHasAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x02000200, CX
	CMPL CX, $0x02000200
	SETEQ ret+0(FP)
	RET
