//go:build amd64 && !purego

#include "textflag.h"

// One AES-128 key-expansion round, after crypto/aes's _expand_key_128:
// X0 holds the previous round key and leaves holding the next, which is
// stored at (BX); X4 is scratch whose low dword must be zero on entry and
// is kept so by the shuffles.
#define EXPAND_ROUND(rcon) \
	AESKEYGENASSIST rcon, X0, X1 \
	PSHUFD $0xff, X1, X1         \
	SHUFPS $0x10, X0, X4         \
	PXOR   X4, X0                \
	SHUFPS $0x8c, X0, X4         \
	PXOR   X4, X0                \
	PXOR   X1, X0                \
	MOVUPS X0, (BX)              \
	ADDQ   $16, BX

// func expand128(key *[16]byte, rk *[176]byte)
// Requires: AES, SSE2
TEXT ·expand128(SB), NOSPLIT, $0-16
	MOVQ   key+0(FP), AX
	MOVQ   rk+8(FP), BX
	MOVUPS (AX), X0
	MOVUPS X0, (BX)
	ADDQ   $16, BX
	PXOR   X4, X4
	EXPAND_ROUND($0x01)
	EXPAND_ROUND($0x02)
	EXPAND_ROUND($0x04)
	EXPAND_ROUND($0x08)
	EXPAND_ROUND($0x10)
	EXPAND_ROUND($0x20)
	EXPAND_ROUND($0x40)
	EXPAND_ROUND($0x80)
	EXPAND_ROUND($0x1b)
	EXPAND_ROUND($0x36)
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

// func cpuHasAESNI() bool
TEXT ·cpuHasAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET
