#include "textflag.h"

// crc100Sum returns the sum, modulo 2^64, of the CRC-32C (Castagnoli)
// of each of the recs 100-byte records at the start of p: twelve 8-byte
// words and one 4-byte tail per record. Three records' chains run
// interleaved, since the CRC32 instruction has a latency of three cycles
// and a throughput of one: one chain alone leaves two thirds of the unit
// idle. The remaining zero to two records run one chain each.

// func crc100Sum(p []byte, recs int) uint64
TEXT ·crc100Sum(SB), NOSPLIT, $0-40
	MOVQ p_base+0(FP), SI
	MOVQ recs+24(FP), CX
	XORQ R11, R11
	CMPQ CX, $3
	JB   tail

triple:
	MOVL $0xffffffff, AX
	MOVL AX, BX
	MOVL AX, DX
	CRC32Q 0(SI), AX
	CRC32Q 100(SI), BX
	CRC32Q 200(SI), DX
	CRC32Q 8(SI), AX
	CRC32Q 108(SI), BX
	CRC32Q 208(SI), DX
	CRC32Q 16(SI), AX
	CRC32Q 116(SI), BX
	CRC32Q 216(SI), DX
	CRC32Q 24(SI), AX
	CRC32Q 124(SI), BX
	CRC32Q 224(SI), DX
	CRC32Q 32(SI), AX
	CRC32Q 132(SI), BX
	CRC32Q 232(SI), DX
	CRC32Q 40(SI), AX
	CRC32Q 140(SI), BX
	CRC32Q 240(SI), DX
	CRC32Q 48(SI), AX
	CRC32Q 148(SI), BX
	CRC32Q 248(SI), DX
	CRC32Q 56(SI), AX
	CRC32Q 156(SI), BX
	CRC32Q 256(SI), DX
	CRC32Q 64(SI), AX
	CRC32Q 164(SI), BX
	CRC32Q 264(SI), DX
	CRC32Q 72(SI), AX
	CRC32Q 172(SI), BX
	CRC32Q 272(SI), DX
	CRC32Q 80(SI), AX
	CRC32Q 180(SI), BX
	CRC32Q 280(SI), DX
	CRC32Q 88(SI), AX
	CRC32Q 188(SI), BX
	CRC32Q 288(SI), DX
	CRC32L 96(SI), AX
	CRC32L 196(SI), BX
	CRC32L 296(SI), DX
	NOTL AX
	NOTL BX
	NOTL DX
	ADDQ AX, R11
	ADDQ BX, R11
	ADDQ DX, R11
	ADDQ $300, SI
	SUBQ $3, CX
	CMPQ CX, $3
	JAE  triple

tail:
	TESTQ CX, CX
	JZ    done
	MOVL  $0xffffffff, AX
	CRC32Q 0(SI), AX
	CRC32Q 8(SI), AX
	CRC32Q 16(SI), AX
	CRC32Q 24(SI), AX
	CRC32Q 32(SI), AX
	CRC32Q 40(SI), AX
	CRC32Q 48(SI), AX
	CRC32Q 56(SI), AX
	CRC32Q 64(SI), AX
	CRC32Q 72(SI), AX
	CRC32Q 80(SI), AX
	CRC32Q 88(SI), AX
	CRC32L 96(SI), AX
	NOTL  AX
	ADDQ  AX, R11
	ADDQ  $100, SI
	DECQ  CX
	JMP   tail

done:
	MOVQ R11, ret+32(FP)
	RET

// func hasSSE42() bool
TEXT ·hasSSE42(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	SHRL  $20, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET
