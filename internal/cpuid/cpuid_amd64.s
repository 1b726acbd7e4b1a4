#include "textflag.h"

// func features() (avx, avx2 bool)
//
// avx: CPUID leaf 1 ECX bit 27 (OSXSAVE: XGETBV is usable) and bit 28 (AVX),
// and XCR0 bits 1 and 2 — the OS saves XMM and YMM state across a context
// switch. avx2: avx, and leaf 7 EBX bit 5.
TEXT ·features(SB), NOSPLIT, $0-2
	MOVB  $0, avx+0(FP)
	MOVB  $0, avx2+1(FP)
	XORL  AX, AX
	CPUID
	MOVL  AX, R8            // highest standard leaf
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   done
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   done
	MOVB  $1, avx+0(FP)
	CMPL  R8, $7
	JCS   done              // no leaf 7 (unsigned below)
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $(1<<5), BX
	JZ    done
	MOVB  $1, avx2+1(FP)

done:
	RET
