#include "gpu/executor.hh"

#include <algorithm>
#include <array>
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
            // Batched SoA trace append; local sends never reach the
            // trace.
            if (st.memSink)
                st.memSink->append(addr, bytes, IsWrite);
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

} // anonymous namespace

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

    // Drain the thread's scratch accumulators into the
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
    st.deltas = trace_deltas.data();
    st.numDeltas = trace_deltas.size();
    st.dirtyDeltas = &dirty_deltas;
    st.bin = &bin;
    st.issueCycles = &ctx.issueCycles;
    st.lastTimer = &ctx.lastTimer;
    st.next = 0;
    st.terminated = false;

    uint32_t cur = prog.superOf[0];
    const Uop *stream = fast ? prog.fastUops.data() : prog.uops.data();

    if (block_trace) {
        // Trace path: step member by member so the recorded block
        // sequence and its truncation point match the reference
        // interpreter exactly.
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

} // namespace gt::gpu
