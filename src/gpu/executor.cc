#include "gpu/executor.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"
#include "gpu/detailed_checkpoint.hh"
#include "isa/lane_ops.hh"

namespace gt::gpu
{

using isa::AddrSpace;
using isa::CmpOp;
using isa::FlagMode;
using isa::Instruction;
using isa::KernelBinary;
using isa::Opcode;
using isa::Operand;
using isa::Uop;
using isa::UopProgram;
using namespace isa::lane;

namespace
{

/** Per-thread scratch local (shared) memory size. */
constexpr uint64_t localMemBytes = 16 * 1024;

/** Maximum subroutine call depth. */
constexpr size_t maxCallDepth = 64;

} // anonymous namespace

/** Architectural state of one hardware thread. */
struct Executor::ThreadCtx
{
    uint32_t regs[isa::numRegisters][isa::maxSimdWidth];
    uint8_t flags[isa::numFlags][isa::maxSimdWidth];
    std::vector<uint32_t> callStack;
    std::vector<uint8_t> local;
    double issueCycles = 0.0;
    double lastTimer = 0.0;
    uint64_t instrsExecuted = 0;

    ThreadCtx() : local(localMemBytes, 0) { callStack.reserve(8); }

    /**
     * Prepare the context for one thread. @p clear_regs is the number
     * of leading registers the plan proved may be read before being
     * written (everything else is dead state no instruction can
     * observe); @p clear_local is false when the kernel provably
     * never touches local memory, skipping the 16 KB fill.
     */
    void
    reset(const Dispatch &dispatch, uint64_t thread_idx,
          uint16_t clear_regs, bool clear_local)
    {
        if (clear_regs > 0)
            std::memset(regs, 0, sizeof(regs[0]) * clear_regs);
        std::memset(flags, 0, sizeof(flags));
        if (clear_local)
            std::fill(local.begin(), local.end(), 0);
        callStack.clear();
        issueCycles = 0.0;
        lastTimer = 0.0;
        instrsExecuted = 0;

        uint64_t base = thread_idx * dispatch.simdWidth;
        for (int lane = 0; lane < isa::maxSimdWidth; ++lane)
            regs[0][lane] = (uint32_t)(base + (uint64_t)lane);
        regs[1][0] = (uint32_t)thread_idx;
        regs[1][1] = (uint32_t)dispatch.globalSize;
        regs[1][2] = dispatch.simdWidth;
        for (size_t a = 0; a < dispatch.args.size(); ++a) {
            for (int lane = 0; lane < isa::maxSimdWidth; ++lane)
                regs[2 + a][lane] = dispatch.args[a];
        }
    }
};

/**
 * One deferred memory-trace record of a gang slot. Gang execution
 * interleaves threads uop by uop, but the trace consumer must see each
 * thread's records contiguously and in thread order (bitwise parity
 * with scalar execution), so sends buffer per-slot records and the
 * gang drains them into the sink after the whole gang finishes.
 */
struct GangMemRec
{
    uint64_t addr;
    /** bytesPerLane | isWrite << 31. */
    uint32_t meta;
};

/**
 * Interpreter state threaded through uop handlers. Holds raw views
 * into the ThreadCtx plus the control-transfer cell: `next` starts at
 * the superblock's defaultNext and transfer uops overwrite it
 * (last write wins, like the reference interpreter's next_pc).
 */
struct UopSt
{
    uint32_t (*regs)[isa::maxSimdWidth];
    uint8_t (*flags)[isa::maxSimdWidth];
    uint8_t *local;
    std::vector<uint32_t> *callStack;
    DeviceMemory *memory;
    MemTraceSink *memSink;
    /** When set (scalar continuation of a retired gang slot), trace
     * records append here instead of memSink so the gang can drain
     * them in thread order. */
    std::vector<GangMemRec> *memVec;
    uint64_t *deltas;
    size_t numDeltas;
    /** Trace slots whose scratch delta became nonzero (see
     * Executor::dirtyDeltas). */
    std::vector<uint32_t> *dirtyDeltas;
    const KernelBinary *bin;
    double *issueCycles;
    double *lastTimer;
    uint32_t next;
    bool terminated;
};

namespace
{

/*
 * Uop handlers. Each is specialized at compile time on the operand
 * shapes its kind encodes, and on the dispatch style `Chain`:
 *
 *  - Chain = true (hot path): token-threaded dispatch. Every handler
 *    tail-calls the handler of the following uop, so executing a
 *    superblock is one indirect jump per uop with no dispatch loop;
 *    the chain ends when the superblock's stop sentinel (or a Halt)
 *    returns instead of chaining.
 *  - Chain = false (trace path): single-step. Each handler returns
 *    after its own uop so the caller can walk member basic blocks
 *    one at a time.
 */
using UopFn = const Uop *(*)(const Uop *, UopSt &);
using UopTable = std::array<UopFn, isa::numUopKinds>;

/** [0] = single-step handlers, [1] = threaded handlers. */
extern const UopTable uopTables[2];

/** Read a source field: an immediate baked at decode, or a register
 * lane. The imm/reg switch the reference interpreter pays per lane is a
 * compile-time branch here. */
template <bool Imm>
inline uint32_t
srcLane(uint32_t s, const UopSt &st, int lane)
{
    if constexpr (Imm)
        return s;
    else
        return st.regs[s][lane];
}

/**
 * Run @p body(lane) over the uop's lanes. Both legal dispatch widths
 * (8 and 16) get a constant trip count, which is what lets the
 * compiler vectorize the specialized handler loops — per-lane results
 * are bitwise identical to the scalar loop (elementwise, no
 * reassociation).
 */
template <class Body>
inline void
forLanes(int width, Body body)
{
    if (width == isa::maxSimdWidth) {
        for (int l = 0; l < isa::maxSimdWidth; ++l)
            body(l);
    } else if (width == 8) {
        for (int l = 0; l < 8; ++l)
            body(l);
    } else {
        for (int l = 0; l < width; ++l)
            body(l);
    }
}

/** Continue to the next uop (threaded) or yield to the caller. */
template <bool Chain>
inline const Uop *
chainNext(const Uop *u, UopSt &st)
{
    if constexpr (Chain) {
        const Uop *n = u + 1;
        return uopTables[1][n->kind](n, st);
    } else {
        return nullptr;
    }
}

template <bool C, class F, bool I0>
const Uop *
uopUnary(const Uop *up, UopSt &st)
{
    const Uop &u = *up;
    uint32_t *d = st.regs[u.dst];
    forLanes(u.width, [&](int l) {
        d[l] = F::apply(srcLane<I0>(u.s0, st, l));
    });
    return chainNext<C>(up, st);
}

template <bool C, class F, bool I0, bool I1>
const Uop *
uopBinary(const Uop *up, UopSt &st)
{
    const Uop &u = *up;
    uint32_t *d = st.regs[u.dst];
    forLanes(u.width, [&](int l) {
        d[l] = F::apply(srcLane<I0>(u.s0, st, l),
                        srcLane<I1>(u.s1, st, l));
    });
    return chainNext<C>(up, st);
}

template <bool C, class F, bool I0, bool I1, bool I2>
const Uop *
uopTernary(const Uop *up, UopSt &st)
{
    const Uop &u = *up;
    uint32_t *d = st.regs[u.dst];
    forLanes(u.width, [&](int l) {
        d[l] = F::apply(srcLane<I0>(u.s0, st, l),
                        srcLane<I1>(u.s1, st, l),
                        srcLane<I2>(u.s2, st, l));
    });
    return chainNext<C>(up, st);
}

// Scalar functors. Integer ops are written out; float ops reuse the
// shared helpers above (bitwise parity with the reference).
struct OpMov { static uint32_t apply(uint32_t a) { return a; } };
struct OpNot { static uint32_t apply(uint32_t a) { return ~a; } };
struct OpFrc { static uint32_t apply(uint32_t a) { return frcBits(a); } };
struct OpSqrt { static uint32_t apply(uint32_t a) { return sqrtBits(a); } };
struct OpRsqrt { static uint32_t apply(uint32_t a) { return rsqrtBits(a); } };
struct OpSin { static uint32_t apply(uint32_t a) { return sinBits(a); } };
struct OpCos { static uint32_t apply(uint32_t a) { return cosBits(a); } };
struct OpExp { static uint32_t apply(uint32_t a) { return exp2Bits(a); } };
struct OpLog { static uint32_t apply(uint32_t a) { return log2Bits(a); } };

struct OpAnd { static uint32_t apply(uint32_t a, uint32_t b) { return a & b; } };
struct OpOr { static uint32_t apply(uint32_t a, uint32_t b) { return a | b; } };
struct OpXor { static uint32_t apply(uint32_t a, uint32_t b) { return a ^ b; } };
struct OpShl { static uint32_t apply(uint32_t a, uint32_t b) { return a << (b & 31); } };
struct OpShr { static uint32_t apply(uint32_t a, uint32_t b) { return a >> (b & 31); } };
struct OpAsr
{
    static uint32_t
    apply(uint32_t a, uint32_t b)
    {
        return (uint32_t)((int32_t)a >> (b & 31));
    }
};
struct OpAdd { static uint32_t apply(uint32_t a, uint32_t b) { return a + b; } };
struct OpSub { static uint32_t apply(uint32_t a, uint32_t b) { return a - b; } };
struct OpMul { static uint32_t apply(uint32_t a, uint32_t b) { return a * b; } };
struct OpMin
{
    static uint32_t
    apply(uint32_t a, uint32_t b)
    {
        int32_t sa = (int32_t)a, sb = (int32_t)b;
        return (uint32_t)(sa < sb ? sa : sb);
    }
};
struct OpMax
{
    static uint32_t
    apply(uint32_t a, uint32_t b)
    {
        int32_t sa = (int32_t)a, sb = (int32_t)b;
        return (uint32_t)(sa > sb ? sa : sb);
    }
};
struct OpAvg
{
    static uint32_t
    apply(uint32_t a, uint32_t b)
    {
        return (uint32_t)(((uint64_t)a + (uint64_t)b + 1) >> 1);
    }
};
struct OpFAdd { static uint32_t apply(uint32_t a, uint32_t b) { return fAddBits(a, b); } };
struct OpFMul { static uint32_t apply(uint32_t a, uint32_t b) { return fMulBits(a, b); } };
struct OpFDiv { static uint32_t apply(uint32_t a, uint32_t b) { return fDivBits(a, b); } };

struct OpMad
{
    static uint32_t
    apply(uint32_t a, uint32_t b, uint32_t c)
    {
        return a * b + c;
    }
};
struct OpFMad
{
    static uint32_t
    apply(uint32_t a, uint32_t b, uint32_t c)
    {
        return fMadBits(a, b, c);
    }
};
struct OpLrp
{
    static uint32_t
    apply(uint32_t t, uint32_t a, uint32_t b)
    {
        return lrpBits(t, a, b);
    }
};
struct OpPln
{
    static uint32_t
    apply(uint32_t a, uint32_t b, uint32_t c)
    {
        return fMadBits(a, b, c);
    }
};

template <bool C, bool I0, bool I1>
const Uop *
uopSel(const Uop *up, UopSt &st)
{
    const Uop &u = *up;
    uint32_t *d = st.regs[u.dst];
    const uint8_t *f = st.flags[u.flag];
    forLanes(u.width, [&](int l) {
        d[l] = f[l] ? srcLane<I0>(u.s0, st, l)
                    : srcLane<I1>(u.s1, st, l);
    });
    return chainNext<C>(up, st);
}

template <bool C, CmpOp Op, bool I0, bool I1>
const Uop *
uopCmp(const Uop *up, UopSt &st)
{
    const Uop &u = *up;
    uint8_t *f = st.flags[u.flag];
    forLanes(u.width, [&](int l) {
        f[l] = isa::evalCmp(Op, srcLane<I0>(u.s0, st, l),
                            srcLane<I1>(u.s1, st, l));
    });
    return chainNext<C>(up, st);
}

template <bool C, bool I0, bool I1>
const Uop *
uopDp4(const Uop *up, UopSt &st)
{
    const Uop &u = *up;
    uint32_t *d = st.regs[u.dst];
    for (int l = 0; l < u.width; ++l) {
        int base = l & ~3;
        float acc = 0.0f;
        for (int k = 0; k < 4; ++k) {
            acc = dp4Step(acc, srcLane<I0>(u.s0, st, base + k),
                          srcLane<I1>(u.s1, st, base + k));
        }
        d[l] = asBits(acc);
    }
    return chainNext<C>(up, st);
}

template <bool C, bool IsWrite, bool IsLocal, bool I0>
const Uop *
uopSend(const Uop *up, UopSt &st)
{
    const Uop &u = *up;
    const uint32_t *addr_reg = st.regs[u.s1];
    const int64_t offset = (int64_t)(int32_t)u.aux;
    const uint32_t bytes = u.aux16;
    for (int l = 0; l < u.width; ++l) {
        uint64_t addr = (uint64_t)addr_reg[l] + offset;
        if constexpr (IsLocal) {
            uint64_t off = addr % (localMemBytes - 4);
            if constexpr (IsWrite) {
                uint32_t v = srcLane<I0>(u.s0, st, l);
                std::memcpy(st.local + off, &v, 4);
            } else {
                uint32_t v;
                std::memcpy(&v, st.local + off, 4);
                st.regs[u.dst][l] = v;
            }
        } else {
            if constexpr (IsWrite) {
                uint32_t v = srcLane<I0>(u.s0, st, l);
                for (uint32_t b = 0; b < bytes; b += 4)
                    st.memory->write32(addr + b, v);
            } else {
                st.regs[u.dst][l] = st.memory->read32(addr);
            }
            // Trace delivery: batched SoA append, or the per-slot gang
            // record buffer. Local sends never reach the trace.
            if (st.memSink) {
                st.memSink->append(addr, bytes, IsWrite);
            } else if (st.memVec) {
                st.memVec->push_back(
                    {addr, bytes | (IsWrite ? 0x80000000u : 0u)});
            }
        }
    }
    return chainNext<C>(up, st);
}

template <bool C>
const Uop *
uopJmp(const Uop *up, UopSt &st)
{
    st.next = up->aux;
    return chainNext<C>(up, st);
}

template <bool C, bool Negate, FlagMode M>
const Uop *
uopBranch(const Uop *up, UopSt &st)
{
    const Uop &u = *up;
    const uint8_t *f = st.flags[u.flag];
    bool cond;
    if constexpr (M == FlagMode::Lane0) {
        cond = f[0];
    } else if constexpr (M == FlagMode::Any) {
        cond = false;
        for (int l = 0; l < u.width; ++l)
            cond = cond || f[l];
    } else {
        cond = true;
        for (int l = 0; l < u.width; ++l)
            cond = cond && f[l];
    }
    if constexpr (Negate)
        cond = !cond;
    if (cond)
        st.next = u.aux;
    return chainNext<C>(up, st);
}

template <bool C>
const Uop *
uopCall(const Uop *up, UopSt &st)
{
    GT_ASSERT(st.callStack->size() < maxCallDepth,
              st.bin->name, ": call stack overflow");
    st.callStack->push_back(up->aux2);
    st.next = up->aux;
    return chainNext<C>(up, st);
}

template <bool C>
const Uop *
uopRet(const Uop *up, UopSt &st)
{
    GT_ASSERT(!st.callStack->empty(),
              st.bin->name, ": ret with empty call stack");
    st.next = st.callStack->back();
    st.callStack->pop_back();
    return chainNext<C>(up, st);
}

const Uop *
uopHalt(const Uop *, UopSt &st)
{
    st.terminated = true;
    return nullptr;
}

const Uop *
uopDoStop(const Uop *, UopSt &)
{
    return nullptr;
}

/**
 * Add @p delta to the uop's trace slot. Deltas are non-negative, so a
 * slot leaves zero at most once per thread and the dirty list records
 * each touched slot exactly once — the caller's flush and clear walk
 * the list instead of the whole scratch vector.
 */
inline void
uopProfAccum(const Uop &u, UopSt &st, uint64_t delta)
{
    GT_ASSERT(st.numDeltas != 0,
              st.bin->name, ": instrumented binary executed without "
              "a trace buffer");
    GT_ASSERT(u.aux < st.numDeltas,
              st.bin->name, ": trace slot out of range");
    uint64_t &slot = st.deltas[u.aux];
    if (slot == 0 && delta != 0)
        st.dirtyDeltas->push_back(u.aux);
    slot += delta;
}

template <bool C>
const Uop *
uopProfCount(const Uop *up, UopSt &st)
{
    uopProfAccum(*up, st, up->aux2);
    return chainNext<C>(up, st);
}

template <bool C, bool I0>
const Uop *
uopProfAdd(const Uop *up, UopSt &st)
{
    uopProfAccum(*up, st, srcLane<I0>(up->s0, st, 0));
    return chainNext<C>(up, st);
}

template <bool C>
const Uop *
uopProfTimer(const Uop *up, UopSt &st)
{
    double now = *st.issueCycles;
    uopProfAccum(*up, st, (uint64_t)(now - *st.lastTimer));
    *st.lastTimer = now;
    return chainNext<C>(up, st);
}

// Trap handlers reproduce the reference interpreter's panics, firing only
// when a malformed instruction is actually executed.
const Uop *
uopDoTrapAbsent(const Uop *, UopSt &st)
{
    panic(st.bin->name, ": read of absent operand");
}

const Uop *
uopDoTrapBadOpcode(const Uop *up, UopSt &st)
{
    panic(st.bin->name, ": unimplemented opcode ",
          isa::opcodeName((Opcode)up->aux));
}

const Uop *
uopDoTrapBadFlagMode(const Uop *, UopSt &)
{
    panic("invalid flag mode");
}

const Uop *
uopUnregistered(const Uop *up, UopSt &st)
{
    panic(st.bin->name, ": uop kind ", up->kind, " has no handler");
}

template <bool C, class F>
void
regUnary(UopTable &t, Opcode op)
{
    t[isa::uopKind(op, 0)] = &uopUnary<C, F, false>;
    t[isa::uopKind(op, 1)] = &uopUnary<C, F, true>;
}

template <bool C, class F>
void
regBinary(UopTable &t, Opcode op)
{
    t[isa::uopKind(op, 0)] = &uopBinary<C, F, false, false>;
    t[isa::uopKind(op, 1)] = &uopBinary<C, F, true, false>;
    t[isa::uopKind(op, 2)] = &uopBinary<C, F, false, true>;
    t[isa::uopKind(op, 3)] = &uopBinary<C, F, true, true>;
}

template <bool C, class F>
void
regTernary(UopTable &t, Opcode op)
{
    t[isa::uopKind(op, 0)] = &uopTernary<C, F, false, false, false>;
    t[isa::uopKind(op, 1)] = &uopTernary<C, F, true, false, false>;
    t[isa::uopKind(op, 2)] = &uopTernary<C, F, false, true, false>;
    t[isa::uopKind(op, 3)] = &uopTernary<C, F, true, true, false>;
    t[isa::uopKind(op, 4)] = &uopTernary<C, F, false, false, true>;
    t[isa::uopKind(op, 5)] = &uopTernary<C, F, true, false, true>;
    t[isa::uopKind(op, 6)] = &uopTernary<C, F, false, true, true>;
    t[isa::uopKind(op, 7)] = &uopTernary<C, F, true, true, true>;
}

template <bool C, CmpOp Op>
void
regCmp(UopTable &t)
{
    const int base = (int)Op << 2;
    t[isa::uopKind(Opcode::Cmp, base | 0)] = &uopCmp<C, Op, false, false>;
    t[isa::uopKind(Opcode::Cmp, base | 1)] = &uopCmp<C, Op, true, false>;
    t[isa::uopKind(Opcode::Cmp, base | 2)] = &uopCmp<C, Op, false, true>;
    t[isa::uopKind(Opcode::Cmp, base | 3)] = &uopCmp<C, Op, true, true>;
}

template <bool C, bool Negate>
void
regBranch(UopTable &t, Opcode op)
{
    t[isa::uopKind(op, 0)] = &uopBranch<C, Negate, FlagMode::Lane0>;
    t[isa::uopKind(op, 1)] = &uopBranch<C, Negate, FlagMode::Any>;
    t[isa::uopKind(op, 2)] = &uopBranch<C, Negate, FlagMode::All>;
}

template <bool C>
UopTable
buildTable()
{
    UopTable t;
    t.fill(&uopUnregistered);

    regUnary<C, OpMov>(t, Opcode::Mov);
    regUnary<C, OpNot>(t, Opcode::Not);
    regUnary<C, OpFrc>(t, Opcode::Frc);
    regUnary<C, OpSqrt>(t, Opcode::Sqrt);
    regUnary<C, OpRsqrt>(t, Opcode::Rsqrt);
    regUnary<C, OpSin>(t, Opcode::Sin);
    regUnary<C, OpCos>(t, Opcode::Cos);
    regUnary<C, OpExp>(t, Opcode::Exp);
    regUnary<C, OpLog>(t, Opcode::Log);

    regBinary<C, OpAnd>(t, Opcode::And);
    regBinary<C, OpOr>(t, Opcode::Or);
    regBinary<C, OpXor>(t, Opcode::Xor);
    regBinary<C, OpShl>(t, Opcode::Shl);
    regBinary<C, OpShr>(t, Opcode::Shr);
    regBinary<C, OpAsr>(t, Opcode::Asr);
    regBinary<C, OpAdd>(t, Opcode::Add);
    regBinary<C, OpSub>(t, Opcode::Sub);
    regBinary<C, OpMul>(t, Opcode::Mul);
    regBinary<C, OpMin>(t, Opcode::Min);
    regBinary<C, OpMax>(t, Opcode::Max);
    regBinary<C, OpAvg>(t, Opcode::Avg);
    regBinary<C, OpFAdd>(t, Opcode::FAdd);
    regBinary<C, OpFMul>(t, Opcode::FMul);
    regBinary<C, OpFDiv>(t, Opcode::FDiv);

    regTernary<C, OpMad>(t, Opcode::Mad);
    regTernary<C, OpFMad>(t, Opcode::FMad);
    regTernary<C, OpLrp>(t, Opcode::Lrp);
    regTernary<C, OpPln>(t, Opcode::Pln);

    t[isa::uopKind(Opcode::Sel, 0)] = &uopSel<C, false, false>;
    t[isa::uopKind(Opcode::Sel, 1)] = &uopSel<C, true, false>;
    t[isa::uopKind(Opcode::Sel, 2)] = &uopSel<C, false, true>;
    t[isa::uopKind(Opcode::Sel, 3)] = &uopSel<C, true, true>;

    regCmp<C, CmpOp::Eq>(t);
    regCmp<C, CmpOp::Ne>(t);
    regCmp<C, CmpOp::Lt>(t);
    regCmp<C, CmpOp::Le>(t);
    regCmp<C, CmpOp::Gt>(t);
    regCmp<C, CmpOp::Ge>(t);

    t[isa::uopKind(Opcode::Dp4, 0)] = &uopDp4<C, false, false>;
    t[isa::uopKind(Opcode::Dp4, 1)] = &uopDp4<C, true, false>;
    t[isa::uopKind(Opcode::Dp4, 2)] = &uopDp4<C, false, true>;
    t[isa::uopKind(Opcode::Dp4, 3)] = &uopDp4<C, true, true>;

    // Send sub bits: isWrite | isLocal<<1 | (store data imm)<<2.
    t[isa::uopKind(Opcode::Send, 0)] = &uopSend<C, false, false, false>;
    t[isa::uopKind(Opcode::Send, 1)] = &uopSend<C, true, false, false>;
    t[isa::uopKind(Opcode::Send, 2)] = &uopSend<C, false, true, false>;
    t[isa::uopKind(Opcode::Send, 3)] = &uopSend<C, true, true, false>;
    t[isa::uopKind(Opcode::Send, 5)] = &uopSend<C, true, false, true>;
    t[isa::uopKind(Opcode::Send, 7)] = &uopSend<C, true, true, true>;

    t[isa::uopKind(Opcode::Jmpi, 0)] = &uopJmp<C>;
    regBranch<C, false>(t, Opcode::Brc);
    regBranch<C, true>(t, Opcode::Brnc);
    t[isa::uopKind(Opcode::Call, 0)] = &uopCall<C>;
    t[isa::uopKind(Opcode::Ret, 0)] = &uopRet<C>;
    t[isa::uopKind(Opcode::Halt, 0)] = &uopHalt;

    t[isa::uopKind(Opcode::ProfCount, 0)] = &uopProfCount<C>;
    t[isa::uopKind(Opcode::ProfMem, 0)] = &uopProfCount<C>;
    t[isa::uopKind(Opcode::ProfAdd, 0)] = &uopProfAdd<C, false>;
    t[isa::uopKind(Opcode::ProfAdd, 1)] = &uopProfAdd<C, true>;
    t[isa::uopKind(Opcode::ProfTimer, 0)] = &uopProfTimer<C>;

    t[isa::uopTrapAbsentOperand] = &uopDoTrapAbsent;
    t[isa::uopTrapBadOpcode] = &uopDoTrapBadOpcode;
    t[isa::uopTrapBadFlagMode] = &uopDoTrapBadFlagMode;
    t[isa::uopStop] = &uopDoStop;
    return t;
}

const UopTable uopTables[2] = {buildTable<false>(), buildTable<true>()};

/*
 * Gang-lockstep execution (Full-mode explicit threads).
 *
 * Up to gangSize threads (slots) share one SoA context: register r of
 * slot s lane l lives at gangRegs[r][s * maxSimdWidth + l], so every
 * data uop is a single dense loop over gangLanes contiguous words
 * instead of gangSize separate chain walks — that loop is what the
 * compiler vectorizes. Data uops run over *all* slots (retired slots'
 * live registers are zeroed at retirement, so the dead lanes compute
 * on harmless zeros); uops with side effects outside the SoA block
 * (sends, call/ret, instrumentation) iterate active slots only.
 * Control uops record a per-slot `next`, and the gang's run loop
 * retires slots whose next leaves the consensus superblock onto the
 * scalar path. Per-lane results are elementwise identical to scalar
 * execution — same shared float helpers, no reassociation.
 */
struct GangSt
{
    static constexpr int slots = Executor::gangSize;
    static constexpr int lanes = slots * isa::maxSimdWidth;

    uint32_t (*regs)[lanes];
    uint8_t (*flags)[lanes];
    /** slots private local blocks, or null for local-free kernels. */
    uint8_t *locals;
    std::vector<uint32_t> *callStacks;
    std::vector<GangMemRec> *memRecs;
    DeviceMemory *memory;
    uint64_t *deltas;
    size_t numDeltas;
    std::vector<uint32_t> *dirtyDeltas;
    const KernelBinary *bin;
    double *issueCycles;
    double *lastTimer;
    uint32_t next[slots];
    uint8_t activeMask;
    /** Buffer per-slot trace records (a sink consumes them later)? */
    bool traceRecs;
    bool terminated;
};

using GangFn = const Uop *(*)(const Uop *, GangSt &);
using GangTable = std::array<GangFn, isa::numUopKinds>;

extern const GangTable gangTable;

template <bool Imm>
inline uint32_t
gangSrc(uint32_t s, const GangSt &st, int i)
{
    if constexpr (Imm)
        return s;
    else
        return st.regs[s][i];
}

/**
 * Run @p body over every gang lane of an instruction of @p width.
 * Width 16 is one flat constant-trip loop over all gangLanes; width 8
 * is a constant-trip inner loop per slot.
 *
 * The loops are marked ivdep: gang lane loops have no loop-carried
 * dependences by construction. Register rows either coincide exactly
 * or not at all (elementwise d[i] = f(a[i], b[i]) is order-free
 * either way), and colliding store lanes only occur in kernels the
 * safety proof admitted via the equal-value route, where every
 * colliding lane writes identical bytes.
 */
template <class Body>
inline void
gangForLanes(int width, Body body)
{
    if (width == isa::maxSimdWidth) {
#pragma GCC ivdep
        for (int i = 0; i < GangSt::lanes; ++i)
            body(i);
    } else if (width == 8) {
        for (int s = 0; s < GangSt::slots; ++s) {
            const int base = s * isa::maxSimdWidth;
#pragma GCC ivdep
            for (int l = 0; l < 8; ++l)
                body(base + l);
        }
    } else {
        for (int s = 0; s < GangSt::slots; ++s) {
            const int base = s * isa::maxSimdWidth;
#pragma GCC ivdep
            for (int l = 0; l < width; ++l)
                body(base + l);
        }
    }
}

/**
 * A source operand with its register row resolved *before* the lane
 * loop. Reading `u`/`st` inside the loop body defeats vectorization:
 * the d[i] stores might alias them as far as the compiler can prove,
 * forcing a reload of the field and the row base every iteration.
 * Hoisting the row pointer into a non-escaping local removes the
 * dependence and lets the lane loops vectorize.
 */
template <bool Imm>
struct GangSrcRow
{
    uint32_t v;
    const uint32_t *row;

    GangSrcRow(uint32_t s, const GangSt &st)
        : v(s), row(Imm ? nullptr : st.regs[s])
    {
    }

    uint32_t
    at(int i) const
    {
        if constexpr (Imm)
            return v;
        else
            return row[i];
    }
};

inline const Uop *
gangChainNext(const Uop *u, GangSt &st)
{
    const Uop *n = u + 1;
    return gangTable[n->kind](n, st);
}

template <class F, bool I0>
const Uop *
gangUnary(const Uop *up, GangSt &st)
{
    const Uop &u = *up;
    uint32_t *d = st.regs[u.dst];
    const GangSrcRow<I0> s0(u.s0, st);
    gangForLanes(u.width, [&](int i) { d[i] = F::apply(s0.at(i)); });
    return gangChainNext(up, st);
}

template <class F, bool I0, bool I1>
const Uop *
gangBinary(const Uop *up, GangSt &st)
{
    const Uop &u = *up;
    uint32_t *d = st.regs[u.dst];
    const GangSrcRow<I0> s0(u.s0, st);
    const GangSrcRow<I1> s1(u.s1, st);
    gangForLanes(u.width, [&](int i) {
        d[i] = F::apply(s0.at(i), s1.at(i));
    });
    return gangChainNext(up, st);
}

template <class F, bool I0, bool I1, bool I2>
const Uop *
gangTernary(const Uop *up, GangSt &st)
{
    const Uop &u = *up;
    uint32_t *d = st.regs[u.dst];
    const GangSrcRow<I0> s0(u.s0, st);
    const GangSrcRow<I1> s1(u.s1, st);
    const GangSrcRow<I2> s2(u.s2, st);
    gangForLanes(u.width, [&](int i) {
        d[i] = F::apply(s0.at(i), s1.at(i), s2.at(i));
    });
    return gangChainNext(up, st);
}

template <bool I0, bool I1>
const Uop *
gangSel(const Uop *up, GangSt &st)
{
    const Uop &u = *up;
    uint32_t *d = st.regs[u.dst];
    const uint8_t *f = st.flags[u.flag];
    const GangSrcRow<I0> s0(u.s0, st);
    const GangSrcRow<I1> s1(u.s1, st);
    gangForLanes(u.width, [&](int i) {
        d[i] = f[i] ? s0.at(i) : s1.at(i);
    });
    return gangChainNext(up, st);
}

template <CmpOp Op, bool I0, bool I1>
const Uop *
gangCmp(const Uop *up, GangSt &st)
{
    const Uop &u = *up;
    uint8_t *f = st.flags[u.flag];
    const GangSrcRow<I0> s0(u.s0, st);
    const GangSrcRow<I1> s1(u.s1, st);
    gangForLanes(u.width, [&](int i) {
        f[i] = isa::evalCmp(Op, s0.at(i), s1.at(i));
    });
    return gangChainNext(up, st);
}

template <bool I0, bool I1>
const Uop *
gangDp4(const Uop *up, GangSt &st)
{
    const Uop &u = *up;
    uint32_t *d = st.regs[u.dst];
    // The 4-lane groups never straddle a slot: slot stride is
    // maxSimdWidth, a multiple of 4.
    const GangSrcRow<I0> s0(u.s0, st);
    const GangSrcRow<I1> s1(u.s1, st);
    for (int s = 0; s < GangSt::slots; ++s) {
        const int sb = s * isa::maxSimdWidth;
        for (int l = 0; l < u.width; ++l) {
            int base = sb + (l & ~3);
            float acc = 0.0f;
            for (int k = 0; k < 4; ++k) {
                acc = dp4Step(acc, s0.at(base + k), s1.at(base + k));
            }
            d[sb + l] = asBits(acc);
        }
    }
    return gangChainNext(up, st);
}

template <bool IsWrite, bool IsLocal, bool I0>
const Uop *
gangSend(const Uop *up, GangSt &st)
{
    const Uop &u = *up;
    const uint32_t *addr_reg = st.regs[u.s1];
    const int64_t offset = (int64_t)(int32_t)u.aux;
    const uint32_t bytes = u.aux16;
    constexpr int W = isa::maxSimdWidth;

    if constexpr (IsLocal) {
        // Each slot owns a private local block, exactly like a scalar
        // thread; local sends are never traced.
        for (int s = 0; s < GangSt::slots; ++s) {
            if (!(st.activeMask >> s & 1))
                continue;
            uint8_t *local = st.locals + (size_t)s * localMemBytes;
            for (int l = 0; l < u.width; ++l) {
                uint64_t addr =
                    (uint64_t)addr_reg[s * W + l] + offset;
                uint64_t off = addr % (localMemBytes - 4);
                if constexpr (IsWrite) {
                    uint32_t v = gangSrc<I0>(u.s0, st, s * W + l);
                    std::memcpy(local + off, &v, 4);
                } else {
                    uint32_t v;
                    std::memcpy(&v, local + off, 4);
                    st.regs[u.dst][s * W + l] = v;
                }
            }
        }
        return gangChainNext(up, st);
    }

    // Global send. Fast path: with every slot live, OR-reduce the
    // lane addresses — each address is <= the OR, so one range check
    // covers the whole gang and the data loop runs unchecked (and
    // vectorized) over raw memory. Any retired slot (garbage lane
    // addresses) or a failed bound falls back to the per-lane checked
    // path, which reproduces the scalar handlers' range panics.
    bool fast_done = false;
    if (st.activeMask == 0xff && offset >= 0) {
        uint32_t or_acc = 0;
        gangForLanes(u.width, [&](int i) { or_acc |= addr_reg[i]; });
        const uint64_t span = IsWrite
            ? (bytes <= 4 ? 4 : ((uint64_t)bytes + 3) / 4 * 4)
            : 4;
        if ((uint64_t)or_acc + (uint64_t)offset + span <=
            st.memory->size()) {
            uint8_t *mem = st.memory->data();
            if constexpr (IsWrite) {
                const GangSrcRow<I0> val(u.s0, st);
                gangForLanes(u.width, [&](int i) {
                    uint64_t addr = (uint64_t)addr_reg[i] + offset;
                    uint32_t v = val.at(i);
                    for (uint32_t b = 0; b < bytes; b += 4)
                        std::memcpy(mem + addr + b, &v, 4);
                });
            } else {
                uint32_t *d = st.regs[u.dst];
                gangForLanes(u.width, [&](int i) {
                    uint64_t addr = (uint64_t)addr_reg[i] + offset;
                    std::memcpy(&d[i], mem + addr, 4);
                });
            }
            fast_done = true;
        }
    }
    if (!fast_done) {
        for (int s = 0; s < GangSt::slots; ++s) {
            if (!(st.activeMask >> s & 1))
                continue;
            for (int l = 0; l < u.width; ++l) {
                uint64_t addr =
                    (uint64_t)addr_reg[s * W + l] + offset;
                if constexpr (IsWrite) {
                    uint32_t v = gangSrc<I0>(u.s0, st, s * W + l);
                    for (uint32_t b = 0; b < bytes; b += 4)
                        st.memory->write32(addr + b, v);
                } else {
                    st.regs[u.dst][s * W + l] =
                        st.memory->read32(addr);
                }
            }
        }
    }
    if (st.traceRecs) {
        const uint32_t meta =
            bytes | (IsWrite ? 0x80000000u : 0u);
        for (int s = 0; s < GangSt::slots; ++s) {
            if (!(st.activeMask >> s & 1))
                continue;
            auto &recs = st.memRecs[s];
            for (int l = 0; l < u.width; ++l) {
                recs.push_back(
                    {(uint64_t)addr_reg[s * W + l] + offset, meta});
            }
        }
    }
    return gangChainNext(up, st);
}

const Uop *
gangJmp(const Uop *up, GangSt &st)
{
    for (int s = 0; s < GangSt::slots; ++s)
        st.next[s] = up->aux;
    return gangChainNext(up, st);
}

template <bool Negate, FlagMode M>
const Uop *
gangBranch(const Uop *up, GangSt &st)
{
    const Uop &u = *up;
    const uint8_t *f = st.flags[u.flag];
    // Evaluated for every slot; retired slots' garbage flags yield
    // garbage nexts that nothing reads.
    for (int s = 0; s < GangSt::slots; ++s) {
        const uint8_t *fs = f + s * isa::maxSimdWidth;
        bool cond;
        if constexpr (M == FlagMode::Lane0) {
            cond = fs[0];
        } else if constexpr (M == FlagMode::Any) {
            cond = false;
            for (int l = 0; l < u.width; ++l)
                cond = cond || fs[l];
        } else {
            cond = true;
            for (int l = 0; l < u.width; ++l)
                cond = cond && fs[l];
        }
        if constexpr (Negate)
            cond = !cond;
        if (cond)
            st.next[s] = u.aux;
    }
    return gangChainNext(up, st);
}

const Uop *
gangCall(const Uop *up, GangSt &st)
{
    // Active slots only: a retired slot's stack must not grow (its
    // scalar continuation owns a copy taken at retirement).
    for (int s = 0; s < GangSt::slots; ++s) {
        if (!(st.activeMask >> s & 1))
            continue;
        GT_ASSERT(st.callStacks[s].size() < maxCallDepth,
                  st.bin->name, ": call stack overflow");
        st.callStacks[s].push_back(up->aux2);
        st.next[s] = up->aux;
    }
    return gangChainNext(up, st);
}

const Uop *
gangRet(const Uop *up, GangSt &st)
{
    (void)up;
    for (int s = 0; s < GangSt::slots; ++s) {
        if (!(st.activeMask >> s & 1))
            continue;
        GT_ASSERT(!st.callStacks[s].empty(),
                  st.bin->name, ": ret with empty call stack");
        st.next[s] = st.callStacks[s].back();
        st.callStacks[s].pop_back();
    }
    return gangChainNext(up, st);
}

const Uop *
gangHalt(const Uop *, GangSt &st)
{
    // All active slots executed the same superblock prefix, so every
    // one of them halts here — the whole gang terminates.
    st.terminated = true;
    return nullptr;
}

const Uop *
gangDoStop(const Uop *, GangSt &)
{
    return nullptr;
}

/** Gang counterpart of uopProfAccum: one aggregated add per uop. */
inline void
gangProfAccum(const Uop &u, GangSt &st, uint64_t delta)
{
    GT_ASSERT(st.numDeltas != 0,
              st.bin->name, ": instrumented binary executed without "
              "a trace buffer");
    GT_ASSERT(u.aux < st.numDeltas,
              st.bin->name, ": trace slot out of range");
    uint64_t &slot = st.deltas[u.aux];
    if (slot == 0 && delta != 0)
        st.dirtyDeltas->push_back(u.aux);
    slot += delta;
}

const Uop *
gangProfCount(const Uop *up, GangSt &st)
{
    gangProfAccum(*up, st, (uint64_t)up->aux2 *
                               std::popcount(st.activeMask));
    return gangChainNext(up, st);
}

template <bool I0>
const Uop *
gangProfAdd(const Uop *up, GangSt &st)
{
    // Slot accumulation is a commutative uint64 sum, so adding the
    // gang's subtotal once equals the scalar per-thread adds exactly.
    uint64_t sum = 0;
    for (int s = 0; s < GangSt::slots; ++s) {
        if (!(st.activeMask >> s & 1))
            continue;
        sum += gangSrc<I0>(up->s0, st, s * isa::maxSimdWidth);
    }
    gangProfAccum(*up, st, sum);
    return gangChainNext(up, st);
}

const Uop *
gangProfTimer(const Uop *up, GangSt &st)
{
    // All active slots share one issue clock and one timer history
    // (identical superblock paths), so each slot's scalar delta is
    // the same value.
    double now = *st.issueCycles;
    uint64_t delta = (uint64_t)(now - *st.lastTimer);
    gangProfAccum(*up, st, delta * std::popcount(st.activeMask));
    *st.lastTimer = now;
    return gangChainNext(up, st);
}

const Uop *
gangDoTrapAbsent(const Uop *, GangSt &st)
{
    panic(st.bin->name, ": read of absent operand");
}

const Uop *
gangDoTrapBadOpcode(const Uop *up, GangSt &st)
{
    panic(st.bin->name, ": unimplemented opcode ",
          isa::opcodeName((Opcode)up->aux));
}

const Uop *
gangDoTrapBadFlagMode(const Uop *, GangSt &)
{
    panic("invalid flag mode");
}

const Uop *
gangUnregistered(const Uop *up, GangSt &st)
{
    panic(st.bin->name, ": uop kind ", up->kind, " has no handler");
}

template <class F>
void
gangRegUnary(GangTable &t, Opcode op)
{
    t[isa::uopKind(op, 0)] = &gangUnary<F, false>;
    t[isa::uopKind(op, 1)] = &gangUnary<F, true>;
}

template <class F>
void
gangRegBinary(GangTable &t, Opcode op)
{
    t[isa::uopKind(op, 0)] = &gangBinary<F, false, false>;
    t[isa::uopKind(op, 1)] = &gangBinary<F, true, false>;
    t[isa::uopKind(op, 2)] = &gangBinary<F, false, true>;
    t[isa::uopKind(op, 3)] = &gangBinary<F, true, true>;
}

template <class F>
void
gangRegTernary(GangTable &t, Opcode op)
{
    t[isa::uopKind(op, 0)] = &gangTernary<F, false, false, false>;
    t[isa::uopKind(op, 1)] = &gangTernary<F, true, false, false>;
    t[isa::uopKind(op, 2)] = &gangTernary<F, false, true, false>;
    t[isa::uopKind(op, 3)] = &gangTernary<F, true, true, false>;
    t[isa::uopKind(op, 4)] = &gangTernary<F, false, false, true>;
    t[isa::uopKind(op, 5)] = &gangTernary<F, true, false, true>;
    t[isa::uopKind(op, 6)] = &gangTernary<F, false, true, true>;
    t[isa::uopKind(op, 7)] = &gangTernary<F, true, true, true>;
}

template <CmpOp Op>
void
gangRegCmp(GangTable &t)
{
    const int base = (int)Op << 2;
    t[isa::uopKind(Opcode::Cmp, base | 0)] = &gangCmp<Op, false, false>;
    t[isa::uopKind(Opcode::Cmp, base | 1)] = &gangCmp<Op, true, false>;
    t[isa::uopKind(Opcode::Cmp, base | 2)] = &gangCmp<Op, false, true>;
    t[isa::uopKind(Opcode::Cmp, base | 3)] = &gangCmp<Op, true, true>;
}

template <bool Negate>
void
gangRegBranch(GangTable &t, Opcode op)
{
    t[isa::uopKind(op, 0)] = &gangBranch<Negate, FlagMode::Lane0>;
    t[isa::uopKind(op, 1)] = &gangBranch<Negate, FlagMode::Any>;
    t[isa::uopKind(op, 2)] = &gangBranch<Negate, FlagMode::All>;
}

GangTable
buildGangTable()
{
    GangTable t;
    t.fill(&gangUnregistered);

    gangRegUnary<OpMov>(t, Opcode::Mov);
    gangRegUnary<OpNot>(t, Opcode::Not);
    gangRegUnary<OpFrc>(t, Opcode::Frc);
    gangRegUnary<OpSqrt>(t, Opcode::Sqrt);
    gangRegUnary<OpRsqrt>(t, Opcode::Rsqrt);
    gangRegUnary<OpSin>(t, Opcode::Sin);
    gangRegUnary<OpCos>(t, Opcode::Cos);
    gangRegUnary<OpExp>(t, Opcode::Exp);
    gangRegUnary<OpLog>(t, Opcode::Log);

    gangRegBinary<OpAnd>(t, Opcode::And);
    gangRegBinary<OpOr>(t, Opcode::Or);
    gangRegBinary<OpXor>(t, Opcode::Xor);
    gangRegBinary<OpShl>(t, Opcode::Shl);
    gangRegBinary<OpShr>(t, Opcode::Shr);
    gangRegBinary<OpAsr>(t, Opcode::Asr);
    gangRegBinary<OpAdd>(t, Opcode::Add);
    gangRegBinary<OpSub>(t, Opcode::Sub);
    gangRegBinary<OpMul>(t, Opcode::Mul);
    gangRegBinary<OpMin>(t, Opcode::Min);
    gangRegBinary<OpMax>(t, Opcode::Max);
    gangRegBinary<OpAvg>(t, Opcode::Avg);
    gangRegBinary<OpFAdd>(t, Opcode::FAdd);
    gangRegBinary<OpFMul>(t, Opcode::FMul);
    gangRegBinary<OpFDiv>(t, Opcode::FDiv);

    gangRegTernary<OpMad>(t, Opcode::Mad);
    gangRegTernary<OpFMad>(t, Opcode::FMad);
    gangRegTernary<OpLrp>(t, Opcode::Lrp);
    gangRegTernary<OpPln>(t, Opcode::Pln);

    t[isa::uopKind(Opcode::Sel, 0)] = &gangSel<false, false>;
    t[isa::uopKind(Opcode::Sel, 1)] = &gangSel<true, false>;
    t[isa::uopKind(Opcode::Sel, 2)] = &gangSel<false, true>;
    t[isa::uopKind(Opcode::Sel, 3)] = &gangSel<true, true>;

    gangRegCmp<CmpOp::Eq>(t);
    gangRegCmp<CmpOp::Ne>(t);
    gangRegCmp<CmpOp::Lt>(t);
    gangRegCmp<CmpOp::Le>(t);
    gangRegCmp<CmpOp::Gt>(t);
    gangRegCmp<CmpOp::Ge>(t);

    t[isa::uopKind(Opcode::Dp4, 0)] = &gangDp4<false, false>;
    t[isa::uopKind(Opcode::Dp4, 1)] = &gangDp4<true, false>;
    t[isa::uopKind(Opcode::Dp4, 2)] = &gangDp4<false, true>;
    t[isa::uopKind(Opcode::Dp4, 3)] = &gangDp4<true, true>;

    t[isa::uopKind(Opcode::Send, 0)] = &gangSend<false, false, false>;
    t[isa::uopKind(Opcode::Send, 1)] = &gangSend<true, false, false>;
    t[isa::uopKind(Opcode::Send, 2)] = &gangSend<false, true, false>;
    t[isa::uopKind(Opcode::Send, 3)] = &gangSend<true, true, false>;
    t[isa::uopKind(Opcode::Send, 5)] = &gangSend<true, false, true>;
    t[isa::uopKind(Opcode::Send, 7)] = &gangSend<true, true, true>;

    t[isa::uopKind(Opcode::Jmpi, 0)] = &gangJmp;
    gangRegBranch<false>(t, Opcode::Brc);
    gangRegBranch<true>(t, Opcode::Brnc);
    t[isa::uopKind(Opcode::Call, 0)] = &gangCall;
    t[isa::uopKind(Opcode::Ret, 0)] = &gangRet;
    t[isa::uopKind(Opcode::Halt, 0)] = &gangHalt;

    t[isa::uopKind(Opcode::ProfCount, 0)] = &gangProfCount;
    t[isa::uopKind(Opcode::ProfMem, 0)] = &gangProfCount;
    t[isa::uopKind(Opcode::ProfAdd, 0)] = &gangProfAdd<false>;
    t[isa::uopKind(Opcode::ProfAdd, 1)] = &gangProfAdd<true>;
    t[isa::uopKind(Opcode::ProfTimer, 0)] = &gangProfTimer;

    t[isa::uopTrapAbsentOperand] = &gangDoTrapAbsent;
    t[isa::uopTrapBadOpcode] = &gangDoTrapBadOpcode;
    t[isa::uopTrapBadFlagMode] = &gangDoTrapBadFlagMode;
    t[isa::uopStop] = &gangDoStop;
    return t;
}

const GangTable gangTable = buildGangTable();

} // anonymous namespace

/** SoA architectural state of one gang (see GangSt). */
struct Executor::GangCtx
{
    alignas(64) uint32_t regs[isa::numRegisters][GangSt::lanes];
    alignas(64) uint8_t flags[isa::numFlags][GangSt::lanes];
    /** gangSize private local blocks, sized lazily on first use by a
     * local-memory kernel. */
    std::vector<uint8_t> locals;
    std::vector<uint32_t> callStacks[GangSt::slots];
    std::vector<GangMemRec> memRecs[GangSt::slots];
};

Executor::Executor(const DeviceConfig &config_, DeviceMemory &memory_)
    : config(config_), memory(memory_)
{
}

Executor::~Executor() = default;

void
Executor::setSharedPlanCache(SharedPlanCache *cache)
{
    GT_ASSERT(!cache || cache->deviceConfig().fpuLanesPerEu ==
                  config.fpuLanesPerEu,
              "shared plan cache bound to a device with a different "
              "FPU width (plans embed issue cycles)");
    sharedPlans = cache;
    plans.clear();
}

ExecPlan
Executor::buildPlan(const KernelBinary &bin, const DeviceConfig &config)
{
    ExecPlan p;
    p.numBlocks = bin.blocks.size();
    p.numInstrs = bin.staticInstrCount();
    p.rel = isa::analyzeRelevance(bin);
    p.prog = isa::decodeUops(bin, p.rel);
    p.blockCycles.resize(bin.blocks.size());
    p.blockInstrs.resize(bin.blocks.size());
    uint16_t max_read = 0;
    bool any_read = false;
    for (const auto &block : bin.blocks) {
        double cycles = 0.0;
        for (const auto &ins : block.instrs) {
            cycles += issueCycles(ins, config.fpuLanesPerEu);
            auto note_read = [&](uint16_t reg) {
                if (reg < isa::numRegisters) {
                    any_read = true;
                    max_read = std::max(max_read, reg);
                }
            };
            for (const Operand *o : {&ins.src0, &ins.src1, &ins.src2}) {
                if (o->isReg())
                    note_read(o->reg);
            }
            if (ins.op == Opcode::Send) {
                note_read(ins.send.addrReg);
                p.usesLocal = p.usesLocal ||
                    ins.send.space == AddrSpace::Local;
            }
        }
        p.blockCycles[block.id] = cycles;
        p.blockInstrs[block.id] = block.instrs.size();
    }
    p.clearRegs = any_read ? (uint16_t)(max_read + 1) : (uint16_t)0;
    p.memberCycles.resize(p.prog.members.size());
    for (size_t i = 0; i < p.prog.members.size(); ++i)
        p.memberCycles[i] = p.blockCycles[p.prog.members[i]];
    p.gang = isa::analyzeGangSafety(bin);
    return p;
}

const Executor::Plan &
Executor::plan(const KernelBinary *bin)
{
    auto it = plans.find(bin);
    if (it != plans.end()) {
        const LocalPlan &cached = it->second;
        if (cached.generation == bin->generation &&
            cached.plan->matchesShape(*bin)) {
            return *cached.plan;
        }
        // A different binary now lives at this address.
        plans.erase(it);
    }

    std::shared_ptr<const ExecPlan> shared;
    uint64_t hash = 0;
    if (sharedPlans) {
        hash = isa::contentHash(*bin);
        shared = sharedPlans->find(hash);
        // Shape mismatch would mean a content-hash collision; build
        // our own plan rather than adopting a wrong one.
        if (shared && !shared->matchesShape(*bin))
            shared = nullptr;
    }
    if (!shared) {
        auto built = std::make_shared<const ExecPlan>(buildPlan(*bin, config));
        shared = sharedPlans
                     ? sharedPlans->insert(hash, std::move(built))
                     : std::shared_ptr<const ExecPlan>(std::move(built));
    }

    LocalPlan local;
    local.generation = bin->generation;
    local.plan = std::move(shared);
    return *plans.emplace(bin, std::move(local)).first->second.plan;
}

bool
Executor::gangDispatchSafe(const Dispatch &dispatch, const Plan &p) const
{
    const isa::GangSafety &g = p.gang;
    if (!g.regionForm)
        return false;
    // An id-delta collision proof at send width w needs distinct
    // global ids across the gang, which a narrower dispatch breaks.
    if (g.minSimdWidth > dispatch.simdWidth)
        return false;
    // Region intervals reason in untruncated arithmetic; a region
    // wrapping the 32-bit address space would void them.
    for (const auto &r : g.regions) {
        uint64_t base = dispatch.args[r.baseArg];
        if ((int64_t)base + r.lo < 0 ||
            (int64_t)base + r.hi > (int64_t)1 << 32) {
            return false;
        }
    }
    // Cross-argument aliasing is a dispatch property: the kernel is
    // safe iff the concrete buffers are disjoint.
    for (const auto &c : g.checks) {
        const auto &a = g.regions[c.a];
        const auto &b = g.regions[c.b];
        int64_t alo = (int64_t)dispatch.args[a.baseArg] + a.lo;
        int64_t ahi = (int64_t)dispatch.args[a.baseArg] + a.hi;
        int64_t blo = (int64_t)dispatch.args[b.baseArg] + b.lo;
        int64_t bhi = (int64_t)dispatch.args[b.baseArg] + b.hi;
        if (alo < bhi && blo < ahi)
            return false;
    }
    return true;
}

ExecProfile
Executor::run(const Dispatch &dispatch, Mode mode, TraceBuffer *trace,
              const MemBatchFn &mem_batch)
{
    GT_ASSERT(dispatch.binary, "dispatch without binary");
    GT_ASSERT(dispatch.globalSize > 0, "dispatch with empty ND-range");
    GT_ASSERT(dispatch.simdWidth == 8 || dispatch.simdWidth == 16,
              "dispatch SIMD width must be 8 or 16");
    GT_ASSERT(dispatch.args.size() >= dispatch.binary->numArgs,
              dispatch.binary->name, ": expected ",
              dispatch.binary->numArgs, " args, got ",
              dispatch.args.size());

    const KernelBinary &bin = *dispatch.binary;
    const Plan &p = plan(&bin);

    bool fast = mode == Mode::Fast;
    if (fast && (p.rel.needsFullExec || mem_batch))
        fast = false;

    uint64_t num_threads = dispatch.numThreads();

    ExecProfile profile;
    profile.numThreads = num_threads;
    profile.blockCounts.assign(bin.blocks.size(), 0);

    traceDeltaBuf.assign(trace ? trace->size() : 0, 0);
    std::vector<uint64_t> &trace_deltas = traceDeltaBuf;

    if (!ctxBuf)
        ctxBuf = std::make_unique<ThreadCtx>();
    ThreadCtx &ctx = *ctxBuf;

    scratchCounts.assign(p.prog.supers.size(), 0);
    scratchDeltas.assign(trace_deltas.size(), 0);
    dirtyCounts.clear();
    dirtyDeltas.clear();

    MemTraceSink *sink = nullptr;
    if (mem_batch) {
        memSink.begin(&mem_batch, memTraceChunk);
        sink = &memSink;
    }

    // Drain the thread's (or gang's) scratch accumulators into the
    // profile and re-zero them, walking only the entries the run
    // dirtied — O(blocks entered), not O(kernel size) per thread.
    auto flush_scratch = [&](uint64_t weight) {
        // One count per superblock entry; expand over members to
        // recover exact per-block counts.
        for (uint32_t s : dirtyCounts) {
            uint64_t c = scratchCounts[s];
            const auto &sb = p.prog.supers[s];
            for (uint32_t j = 0; j < sb.memberCount; ++j) {
                uint32_t b = p.prog.members[sb.memberBegin + j];
                profile.blockCounts[b] += c * weight;
            }
            scratchCounts[s] = 0;
        }
        dirtyCounts.clear();
        for (uint32_t s : dirtyDeltas) {
            trace_deltas[s] += scratchDeltas[s] * weight;
            scratchDeltas[s] = 0;
        }
        dirtyDeltas.clear();
    };

    auto run_scaled = [&](uint64_t thread_idx, uint64_t weight) {
        double cycles = runThreadUops(dispatch, thread_idx, fast, p, ctx,
                                      scratchCounts, dirtyCounts,
                                      scratchDeltas, dirtyDeltas, sink);
        flush_scratch(weight);
        profile.threadCycles += cycles * (double)weight;
    };

    // Gang execution covers Full-mode explicit threads when the
    // plan's gang-safety verdict holds for this dispatch's arguments.
    const bool gang_ok = !fast && gangDispatchSafe(dispatch, p);
    lastGanged = false;

    if (fast && !p.rel.threadDependent) {
        // Every thread behaves identically: run one, scale exactly.
        run_scaled(0, num_threads);
    } else if (fast && num_threads > maxExplicitThreads) {
        // Thread-dependent control at large scale: run a stratified
        // sample; each sampled thread stands for its stratum so the
        // weights cover every thread. The in-stratum position is
        // drawn from a deterministic hash — a fixed stride can alias
        // with the kernel's own thread-id arithmetic.
        uint64_t samples = maxExplicitThreads;
        uint64_t mix_state = 0x9e3779b97f4a7c15ULL;
        for (uint64_t i = 0; i < samples; ++i) {
            uint64_t begin = i * num_threads / samples;
            uint64_t end = (i + 1) * num_threads / samples;
            uint64_t pick = begin + splitmix64(mix_state) %
                                        (end - begin);
            run_scaled(pick, end - begin);
        }
    } else if (gang_ok) {
        double slot_cycles[gangSize];
        for (uint64_t t = 0; t < num_threads; t += gangSize) {
            int count = (int)std::min<uint64_t>(
                gangSize, num_threads - t);
            if (count == 1) {
                // A lone tail thread gains nothing from lockstep.
                run_scaled(t, 1);
                continue;
            }
            runGang(dispatch, t, count, p, scratchCounts, dirtyCounts,
                    scratchDeltas, dirtyDeltas, sink, slot_cycles);
            lastGanged = true;
            flush_scratch(1);
            // Ascending slot order = scalar thread order, so the
            // double accumulation sequence is bitwise identical.
            for (int s = 0; s < count; ++s)
                profile.threadCycles += slot_cycles[s];
        }
    } else {
        for (uint64_t t = 0; t < num_threads; ++t)
            run_scaled(t, 1);
    }

    if (sink)
        sink->finish();

    profile.deriveFromBlocks(bin);

    if (trace) {
        for (size_t s = 0; s < trace_deltas.size(); ++s) {
            if (trace_deltas[s])
                trace->add((uint32_t)s, trace_deltas[s]);
        }
    }
    return profile;
}

std::vector<uint32_t>
Executor::blockTrace(const Dispatch &dispatch, uint64_t thread_idx,
                     uint64_t max_len)
{
    GT_ASSERT(dispatch.binary, "dispatch without binary");
    const Plan &p = plan(dispatch.binary);
    bool fast = !p.rel.needsFullExec;
    if (!ctxBuf)
        ctxBuf = std::make_unique<ThreadCtx>();
    std::vector<uint64_t> counts(p.prog.supers.size(), 0);
    // Size a scratch delta vector so instrumented binaries can also
    // be traced (their prof ops still execute).
    uint32_t max_slot = 0;
    for (const auto &block : dispatch.binary->blocks) {
        for (const auto &ins : block.instrs) {
            if (ins.cls() == isa::OpClass::Instrumentation)
                max_slot = std::max(max_slot, ins.profSlot + 1);
        }
    }
    std::vector<uint64_t> deltas(max_slot, 0);
    std::vector<uint32_t> dirty_counts, dirty_deltas;
    std::vector<uint32_t> trace;
    runThreadUops(dispatch, thread_idx, fast, p, *ctxBuf, counts,
                  dirty_counts, deltas, dirty_deltas, nullptr, &trace,
                  max_len);
    return trace;
}

DetailedCheckpoint
Executor::checkpoint(const Dispatch &dispatch, uint64_t trace_cap)
{
    GT_ASSERT(dispatch.binary, "dispatch without binary");
    const KernelBinary &bin = *dispatch.binary;

    // Same order as the pre-refactor DetailedSimulator::simulate():
    // the representative thread's control-flow trace, then the
    // Fast-mode profile for scaling/normalization.
    DetailedCheckpoint cp;
    cp.binary = dispatch.binary;
    cp.trace = blockTrace(dispatch, 0, trace_cap);
    GT_ASSERT(!cp.trace.empty(), bin.name, ": empty block trace");
    ExecProfile profile = run(dispatch, Mode::Fast);

    cp.tracedInstrs = 0;
    for (uint32_t b : cp.trace)
        cp.tracedInstrs += bin.blocks[b].instrs.size();
    cp.numThreads = profile.numThreads;
    cp.dynInstrs = profile.dynInstrs;
    cp.perThreadInstrs =
        (double)(profile.dynInstrs + profile.instrumentationInstrs) /
        (double)profile.numThreads;
    // If the trace was truncated by the recording cap, the machine
    // layer scales the simulated cycles up by the untraced remainder.
    cp.truncation = std::max(
        1.0, cp.perThreadInstrs / (double)cp.tracedInstrs);
    return cp;
}

double
Executor::runThreadUops(const Dispatch &dispatch, uint64_t thread_idx,
                        bool fast, const Plan &p, ThreadCtx &ctx,
                        std::vector<uint64_t> &sb_counts,
                        std::vector<uint32_t> &dirty_counts,
                        std::vector<uint64_t> &trace_deltas,
                        std::vector<uint32_t> &dirty_deltas,
                        MemTraceSink *mem_sink,
                        std::vector<uint32_t> *block_trace,
                        uint64_t trace_max_len)
{
    const KernelBinary &bin = *dispatch.binary;
    const UopProgram &prog = p.prog;
    ctx.reset(dispatch, thread_idx, p.clearRegs, p.usesLocal);

    UopSt st;
    st.regs = ctx.regs;
    st.flags = ctx.flags;
    st.local = ctx.local.data();
    st.callStack = &ctx.callStack;
    st.memory = &memory;
    st.memSink = mem_sink;
    st.memVec = nullptr;
    st.deltas = trace_deltas.data();
    st.numDeltas = trace_deltas.size();
    st.dirtyDeltas = &dirty_deltas;
    st.bin = &bin;
    st.issueCycles = &ctx.issueCycles;
    st.lastTimer = &ctx.lastTimer;
    st.next = 0;
    st.terminated = false;

    uint32_t cur = prog.superOf[0];

    if (block_trace) {
        // Trace path: step member by member so the recorded block
        // sequence and its truncation point match the reference
        // interpreter exactly.
        const Uop *stream =
            fast ? prog.fastUops.data() : prog.uops.data();
        const uint32_t *member_end = fast
            ? prog.memberFastUopEnd.data()
            : prog.memberUopEnd.data();
        while (true) {
            const UopProgram::Superblock &sb = prog.supers[cur];
            if (sb_counts[cur]++ == 0)
                dirty_counts.push_back(cur);
            st.next = sb.defaultNext;
            uint32_t off = fast ? sb.firstFastUop : sb.firstUop;
            for (uint32_t j = 0; j < sb.memberCount; ++j) {
                if (block_trace->size() >= trace_max_len)
                    return ctx.issueCycles;
                uint32_t m = prog.members[sb.memberBegin + j];
                block_trace->push_back(m);
                ctx.issueCycles += p.blockCycles[m];
                ctx.instrsExecuted += p.blockInstrs[m];
                if (ctx.instrsExecuted > threadInstrLimit) {
                    panic(bin.name, ": thread ", thread_idx,
                          " exceeded the ", threadInstrLimit,
                          "-instruction runaway limit");
                }
                uint32_t end = member_end[sb.memberBegin + j];
                for (uint32_t k = off; k < end; ++k) {
                    uopTables[0][stream[k].kind](stream + k, st);
                    if (st.terminated)
                        return ctx.issueCycles;
                }
                off = end;
            }
            GT_ASSERT(st.next != UopProgram::invalidSuper,
                      bin.name, ": fell off the end of the kernel");
            cur = st.next;
        }
    }

    return uopRun(dispatch, thread_idx, fast, p, ctx, st, cur,
                  sb_counts, dirty_counts);
}

double
Executor::uopRun(const Dispatch &dispatch, uint64_t thread_idx,
                 bool fast, const Plan &p, ThreadCtx &ctx, UopSt &st,
                 uint32_t cur, std::vector<uint64_t> &sb_counts,
                 std::vector<uint32_t> &dirty_counts)
{
    const KernelBinary &bin = *dispatch.binary;
    const UopProgram &prog = p.prog;
    const Uop *stream = fast ? prog.fastUops.data() : prog.uops.data();

    while (true) {
        const UopProgram::Superblock &sb = prog.supers[cur];
        if (sb_counts[cur]++ == 0)
            dirty_counts.push_back(cur);
        // Accrue cycles member by member: issue cycles are doubles
        // and the reference interpreter adds them one block at a time, so
        // a presummed superblock total could round differently.
        const double *mc = p.memberCycles.data() + sb.memberBegin;
        for (uint32_t j = 0; j < sb.memberCount; ++j)
            ctx.issueCycles += mc[j];
        ctx.instrsExecuted += sb.instrs;
        if (ctx.instrsExecuted > threadInstrLimit) {
            panic(bin.name, ": thread ", thread_idx, " exceeded the ",
                  threadInstrLimit, "-instruction runaway limit");
        }

        st.next = sb.defaultNext;
        // Threaded dispatch: the head handler tail-calls the next
        // handler until the superblock's stop sentinel (or a Halt)
        // breaks the chain, so the whole run is one indirect jump per
        // uop with no dispatch loop. The sentinel follows even an
        // empty fast slice, so the chain always terminates.
        const Uop *u = stream + (fast ? sb.firstFastUop : sb.firstUop);
        uopTables[1][u->kind](u, st);
        if (st.terminated)
            return ctx.issueCycles;
        GT_ASSERT(st.next != UopProgram::invalidSuper,
                  bin.name, ": fell off the end of the kernel");
        cur = st.next;
    }
}

void
Executor::runGang(const Dispatch &dispatch, uint64_t first_thread,
                  int count, const Plan &p,
                  std::vector<uint64_t> &sb_counts,
                  std::vector<uint32_t> &dirty_counts,
                  std::vector<uint64_t> &trace_deltas,
                  std::vector<uint32_t> &dirty_deltas,
                  MemTraceSink *mem_sink, double *slot_cycles)
{
    const KernelBinary &bin = *dispatch.binary;
    const UopProgram &prog = p.prog;
    constexpr int W = isa::maxSimdWidth;

    if (!gangBuf)
        gangBuf = std::make_unique<GangCtx>();
    GangCtx &g = *gangBuf;

    // Reset, mirroring ThreadCtx::reset slot by slot. The register
    // and flag clears span all slots, so a short gang's unused slots
    // start on zeros too (their lanes are computed but never
    // observed).
    if (p.clearRegs > 0)
        std::memset(g.regs, 0, sizeof(g.regs[0]) * p.clearRegs);
    std::memset(g.flags, 0, sizeof(g.flags));
    if (p.usesLocal)
        g.locals.assign((size_t)gangSize * localMemBytes, 0);
    for (int s = 0; s < gangSize; ++s) {
        g.callStacks[s].clear();
        g.memRecs[s].clear();
    }
    for (int s = 0; s < count; ++s) {
        uint64_t t = first_thread + (uint64_t)s;
        uint64_t base = t * dispatch.simdWidth;
        for (int lane = 0; lane < W; ++lane)
            g.regs[0][s * W + lane] = (uint32_t)(base + (uint64_t)lane);
        g.regs[1][s * W + 0] = (uint32_t)t;
        g.regs[1][s * W + 1] = (uint32_t)dispatch.globalSize;
        g.regs[1][s * W + 2] = dispatch.simdWidth;
        for (size_t a = 0; a < dispatch.args.size(); ++a) {
            for (int lane = 0; lane < W; ++lane)
                g.regs[2 + a][s * W + lane] = dispatch.args[a];
        }
    }

    double issue_cycles = 0.0;
    double last_timer = 0.0;
    uint64_t instrs = 0;

    GangSt st;
    st.regs = g.regs;
    st.flags = g.flags;
    st.locals = p.usesLocal ? g.locals.data() : nullptr;
    st.callStacks = g.callStacks;
    st.memRecs = g.memRecs;
    st.memory = &memory;
    st.deltas = trace_deltas.data();
    st.numDeltas = trace_deltas.size();
    st.dirtyDeltas = &dirty_deltas;
    st.bin = &bin;
    st.issueCycles = &issue_cycles;
    st.lastTimer = &last_timer;
    st.activeMask = (uint8_t)((1u << count) - 1);
    st.traceRecs = mem_sink != nullptr;
    st.terminated = false;

    // Retire slot s onto the scalar path: copy its lanes out into the
    // shared ThreadCtx and run it to completion with uopRun. Its
    // trace records keep appending to the slot's buffer so the drain
    // below still emits them in thread order.
    auto retire = [&](int s, uint32_t next_super) {
        ThreadCtx &ctx = *ctxBuf;
        for (uint16_t r = 0; r < p.clearRegs; ++r) {
            std::memcpy(ctx.regs[r], &g.regs[r][s * W],
                        sizeof(uint32_t) * W);
        }
        for (int f = 0; f < isa::numFlags; ++f) {
            std::memcpy(ctx.flags[f], &g.flags[f][s * W],
                        sizeof(uint8_t) * W);
        }
        if (p.usesLocal) {
            std::memcpy(ctx.local.data(),
                        g.locals.data() + (size_t)s * localMemBytes,
                        localMemBytes);
        }
        ctx.callStack = g.callStacks[s];
        ctx.issueCycles = issue_cycles;
        ctx.lastTimer = last_timer;
        ctx.instrsExecuted = instrs;

        UopSt sst;
        sst.regs = ctx.regs;
        sst.flags = ctx.flags;
        sst.local = ctx.local.data();
        sst.callStack = &ctx.callStack;
        sst.memory = &memory;
        sst.memSink = nullptr;
        sst.memVec = st.traceRecs ? &g.memRecs[s] : nullptr;
        sst.deltas = trace_deltas.data();
        sst.numDeltas = trace_deltas.size();
        sst.dirtyDeltas = &dirty_deltas;
        sst.bin = &bin;
        sst.issueCycles = &ctx.issueCycles;
        sst.lastTimer = &ctx.lastTimer;
        sst.next = 0;
        sst.terminated = false;

        GT_ASSERT(next_super != UopProgram::invalidSuper,
                  bin.name, ": fell off the end of the kernel");
        slot_cycles[s] = uopRun(dispatch, first_thread + (uint64_t)s,
                                /*fast=*/false, p, ctx, sst,
                                next_super, sb_counts, dirty_counts);

        // Zero the dead slot's live registers so the full-gang data
        // loops keep computing on harmless zeros (no NaN/denormal
        // buildup in lanes nothing reads).
        for (uint16_t r = 0; r < p.clearRegs; ++r)
            std::memset(&g.regs[r][s * W], 0, sizeof(uint32_t) * W);
        st.activeMask &= (uint8_t)~(1u << s);
    };

    uint32_t cur = prog.superOf[0];
    const Uop *stream = prog.uops.data();

    while (true) {
        const UopProgram::Superblock &sb = prog.supers[cur];
        int active_count = std::popcount(st.activeMask);
        if (sb_counts[cur] == 0)
            dirty_counts.push_back(cur);
        sb_counts[cur] += (uint64_t)active_count;
        // One shared clock: every active slot accrues the same member
        // cycles in the same order a scalar thread would.
        const double *mc = p.memberCycles.data() + sb.memberBegin;
        for (uint32_t j = 0; j < sb.memberCount; ++j)
            issue_cycles += mc[j];
        instrs += sb.instrs;
        if (instrs > threadInstrLimit) {
            panic(bin.name, ": thread ",
                  first_thread +
                      (uint64_t)std::countr_zero(st.activeMask),
                  " exceeded the ", threadInstrLimit,
                  "-instruction runaway limit");
        }

        for (int s = 0; s < gangSize; ++s)
            st.next[s] = sb.defaultNext;
        st.terminated = false;
        const Uop *u = stream + sb.firstUop;
        gangTable[u->kind](u, st);
        if (st.terminated)
            break;

        // Consensus: the most common next among active slots (lowest
        // id on ties) continues in lockstep; everyone else retires.
        uint8_t active = st.activeMask;
        int lead = std::countr_zero(active);
        uint32_t next = st.next[lead];
        bool uniform = true;
        for (int s = lead + 1; s < gangSize; ++s) {
            if ((active >> s & 1) && st.next[s] != next) {
                uniform = false;
                break;
            }
        }
        if (!uniform) {
            uint32_t best = 0;
            int best_votes = -1;
            for (int s = 0; s < gangSize; ++s) {
                if (!(active >> s & 1))
                    continue;
                uint32_t n = st.next[s];
                int votes = 0;
                for (int r = 0; r < gangSize; ++r) {
                    if ((active >> r & 1) && st.next[r] == n)
                        ++votes;
                }
                if (votes > best_votes ||
                    (votes == best_votes && n < best)) {
                    best = n;
                    best_votes = votes;
                }
            }
            next = best;
            for (int s = 0; s < gangSize; ++s) {
                if ((active >> s & 1) && st.next[s] != next)
                    retire(s, st.next[s]);
            }
        }
        GT_ASSERT(next != UopProgram::invalidSuper,
                  bin.name, ": fell off the end of the kernel");
        cur = next;
    }

    // Slots still in lockstep at the gang-wide Halt share the clock.
    for (int s = 0; s < gangSize; ++s) {
        if (st.activeMask >> s & 1)
            slot_cycles[s] = issue_cycles;
    }

    // Drain buffered trace records slot-ascending — thread order,
    // each thread's records in its own program order — so the sink
    // sees the exact scalar sequence, chunk boundaries included.
    if (mem_sink) {
        for (int s = 0; s < count; ++s) {
            for (const GangMemRec &rec : g.memRecs[s]) {
                mem_sink->append(rec.addr, rec.meta & 0x7fffffffu,
                                 rec.meta >> 31);
            }
        }
    }
}

} // namespace gt::gpu
