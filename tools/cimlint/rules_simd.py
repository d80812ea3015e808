"""SIMD containment.

Raw vector intrinsics live in exactly one file: src/util/simd.hpp, the
CPU-tier detection layer where any accelerated body must sit next to its
portable twin. An intrinsic at any other site forks the kernel surface:
it compiles only on one ISA, escapes the runtime cpu-feature checks, and
its results are never covered by the bit-identity sweeps that pin every
kernel to the scalar oracle.
"""

from __future__ import annotations

import re
from pathlib import PurePosixPath

from .rules import FileContext, rule
from .tokenizer import line_of

# The dispatch layer itself — the only legitimate home for intrinsics.
SIMD_ALLOWFILE = PurePosixPath("src/util/simd.hpp")

# x86: _mm_/_mm256_/_mm512_ calls, vector register types, gcc builtins.
# ARM: NEON register types and the v<op>q_<lane> call family.
_INTRINSIC = re.compile(
    r"\b_mm\d*_[a-z0-9_]+\b"
    r"|\b__m(?:64|128|256|512)[a-z]*\b"
    r"|\b__builtin_ia32_[a-z0-9_]+\b"
    r"|\b(?:u?int|float|poly)(?:8|16|32|64)x\d+(?:x\d+)?_t\b"
    r"|\bv[a-z][a-z0-9_]*q_(?:[usfp](?:8|16|32|64))\b")

# Vendor intrinsic headers (strings kept: read from ctx.directives).
_INTRIN_INCLUDE = re.compile(
    r"#\s*include\s*[<\"]"
    r"(?:immintrin|x86intrin|[exptsnwa]mmintrin|avx\w*intrin|popcntintrin|"
    r"arm_neon|arm_sve)\.h[>\"]")


@rule(
    "simd-intrinsics-confined",
    "raw SIMD intrinsic outside src/util/simd.hpp; use the util::simd "
    "wrappers",
    """src/util/simd.hpp is the single home for vectorized kernels: it
detects the host's vector tier at runtime (cpu-feature checks), so an
accelerated body there is selected only where the ISA exists and sits
next to the portable fallback it must match bit-for-bit.

An intrinsic (or a vendor intrinsic header) anywhere else escapes all of
that: it compiles only on one ISA, no runtime check guards it, and
nothing asserts its results match the scalar path. If a kernel needs a
vector primitive, add it to simd.hpp with a portable twin and dispatch
on the detected tier.""",
)
def _simd_intrinsics_confined(ctx: FileContext):
    if PurePosixPath(ctx.rel) == SIMD_ALLOWFILE:
        return
    msg = ("raw SIMD intrinsic outside src/util/simd.hpp; use the "
           "util::simd wrappers")
    for m in _INTRIN_INCLUDE.finditer(ctx.directives):
        yield ctx.finding(line_of(ctx.directives, m.start()),
                          "simd-intrinsics-confined", msg)
    for m in _INTRINSIC.finditer(ctx.code):
        yield ctx.finding(line_of(ctx.code, m.start()),
                          "simd-intrinsics-confined", msg)
