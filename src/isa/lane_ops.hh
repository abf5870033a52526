/**
 * @file
 * Per-lane float semantics of the device ISA.
 *
 * Every float operation an interpreter evaluates goes through one of
 * these helpers on raw 32-bit register bits. The executor's scalar
 * and gang handlers and the reference interpreter (tests/reference)
 * all call the same functions, so the compiler makes identical
 * instruction-selection choices (fused multiply-add contraction in
 * particular) and results stay bitwise equal across them.
 */

#ifndef GT_ISA_LANE_OPS_HH
#define GT_ISA_LANE_OPS_HH

#include <bit>
#include <cmath>
#include <cstdint>

namespace gt::isa::lane
{

inline float
asFloat(uint32_t bits)
{
    return std::bit_cast<float>(bits);
}

inline uint32_t
asBits(float value)
{
    return std::bit_cast<uint32_t>(value);
}

inline uint32_t
fAddBits(uint32_t a, uint32_t b)
{
    return asBits(asFloat(a) + asFloat(b));
}

inline uint32_t
fMulBits(uint32_t a, uint32_t b)
{
    return asBits(asFloat(a) * asFloat(b));
}

inline uint32_t
fMadBits(uint32_t a, uint32_t b, uint32_t c)
{
    return asBits(asFloat(a) * asFloat(b) + asFloat(c));
}

inline uint32_t
fDivBits(uint32_t a, uint32_t b)
{
    return asBits(asFloat(a) / asFloat(b));
}

inline uint32_t
frcBits(uint32_t a)
{
    float v = asFloat(a);
    return asBits(v - std::floor(v));
}

inline uint32_t
sqrtBits(uint32_t a)
{
    return asBits(std::sqrt(asFloat(a)));
}

inline uint32_t
rsqrtBits(uint32_t a)
{
    return asBits(1.0f / std::sqrt(asFloat(a)));
}

inline uint32_t
sinBits(uint32_t a)
{
    return asBits(std::sin(asFloat(a)));
}

inline uint32_t
cosBits(uint32_t a)
{
    return asBits(std::cos(asFloat(a)));
}

inline uint32_t
exp2Bits(uint32_t a)
{
    return asBits(std::exp2(asFloat(a)));
}

inline uint32_t
log2Bits(uint32_t a)
{
    float v = asFloat(a);
    return asBits(v > 0.0f ? std::log2(v) : 0.0f);
}

inline float
dp4Step(float acc, uint32_t a, uint32_t b)
{
    return acc + asFloat(a) * asFloat(b);
}

inline uint32_t
lrpBits(uint32_t t, uint32_t a, uint32_t b)
{
    float tf = asFloat(t);
    return asBits(tf * asFloat(a) + (1.0f - tf) * asFloat(b));
}

} // namespace gt::isa::lane

#endif // GT_ISA_LANE_OPS_HH
