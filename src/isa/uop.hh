/**
 * @file
 * Predecoded micro-ops (uops) and superblock chaining.
 *
 * A plain interpreter (such as the reference in tests/reference) pays
 * a large opcode switch per instruction and an imm/reg switch per
 * operand *per lane*.
 * This module lowers a KernelBinary once, at plan time, into a dense
 * array of micro-ops whose kind encodes both the opcode and the
 * operand shapes — `Add r3, r4, #7` and `Add r3, r4, r5` decode to
 * different kinds — so the executor dispatches through a
 * flat function table of loops specialized at compile time and the
 * per-lane operand switch disappears entirely.
 *
 * On top of the uops sits *superblock chaining*: basic blocks linked
 * only by unconditional edges (fall-through or a tail `Jmpi`) whose
 * target has no other predecessor are fused into one superblock — a
 * single uop run with one entry-count/cycles/runaway update instead of
 * one per block. Superblocks partition the CFG (every block belongs to
 * exactly one, dynamic control transfers always enter at a head), so
 * per-block execution counts are recovered *exactly* by crediting each
 * member with its superblock's entry count.
 *
 * Two uop streams are emitted per superblock: the full stream (every
 * instruction) and the fast stream (only instructions marked by the
 * relevance slice, see isa/slice.hh), mirroring the executor's
 * Full/Fast modes. Per-member end offsets into both streams let the
 * trace path step one basic block at a time when an exact block
 * sequence is being recorded.
 *
 * Bitwise-equivalence ground rules (the executor must reproduce the
 * reference interpreter's results exactly, including panics):
 *  - a block containing ProfTimer never chains a successor: the timer
 *    reads issue cycles, which must have advanced only up to and
 *    including its own block;
 *  - a block with a control op outside tail position is never fused
 *    (it stays a singleton superblock and the transfer executes as an
 *    inline uop);
 *  - uops after a mid-block Halt are not emitted — the reference
 *    interpreter breaks out of the block when a Halt retires;
 *  - malformed instructions (absent operands, bad opcodes/flag modes)
 *    decode to trap uops that panic with the reference interpreter's
 *    message only if actually executed.
 */

#ifndef GT_ISA_UOP_HH
#define GT_ISA_UOP_HH

#include <cstdint>
#include <vector>

#include "isa/kernel.hh"
#include "isa/slice.hh"

namespace gt::isa
{

/**
 * Uop kinds are `opcode * uopSubSlots + sub`, where `sub` packs the
 * decode-time specialization (operand imm/reg shape bits, and for Cmp
 * the comparison, for branches the flag mode). The slot count leaves
 * room for Cmp's 6 comparisons x 4 operand shapes (24 subs, the
 * widest user).
 */
constexpr int uopSubSlots = 32;

/** Trap/control kinds live in the slot space past the last opcode. */
enum UopTrap : uint16_t
{
    uopTrapBase = (uint16_t)numOpcodes * uopSubSlots,
    uopTrapAbsentOperand = uopTrapBase,     //!< read of a None operand
    uopTrapBadOpcode,                       //!< unimplemented opcode
    uopTrapBadFlagMode,                     //!< branch with bad mode
    /**
     * Stream terminator appended after every superblock's uop run (in
     * both streams, excluded from numUops/numFastUops): the executor's
     * threaded dispatch chains handler to handler and stops when this
     * one fires.
     */
    uopStop,
    numUopKinds,
};

/** @return the kind for @p op with shape/specialization bits @p sub. */
constexpr uint16_t
uopKind(Opcode op, int sub)
{
    return (uint16_t)((int)op * uopSubSlots + sub);
}

/**
 * One predecoded micro-op. Field use by kind:
 *
 *  - ALU/moves: dst, s0..s2 (register index or raw immediate, per the
 *    shape bits in the kind), width, flag (Sel/Cmp).
 *  - Send: s1 = address register, aux = byte offset (int32 bits),
 *    aux16 = bytesPerLane; dst = load destination, s0 = store data.
 *  - Branches (Brc/Brnc): flag, width, aux = taken-edge superblock.
 *  - Call: aux = callee superblock, aux2 = return-site superblock.
 *  - Inline Jmpi (mid-block only): aux = target superblock.
 *  - Prof ops: aux = trace slot, aux2 = immediate argument; ProfAdd
 *    reads s0.
 *  - Traps: aux = the offending opcode (for the panic message).
 */
struct Uop
{
    uint16_t kind = uopTrapBadOpcode;
    uint8_t width = 1;
    uint8_t flag = 0;
    uint16_t dst = 0;
    uint16_t aux16 = 0;
    uint32_t s0 = 0;
    uint32_t s1 = 0;
    uint32_t s2 = 0;
    uint32_t aux = 0;
    uint32_t aux2 = 0;
};

/** A predecoded kernel binary: superblocks over two uop streams. */
struct UopProgram
{
    /** Sentinel for "no successor" (running off the end panics). */
    static constexpr uint32_t invalidSuper = 0xffffffffu;

    struct Superblock
    {
        /** Full-stream uop slice (every instruction). */
        uint32_t firstUop = 0, numUops = 0;
        /** Fast-stream uop slice (relevance-sliced). */
        uint32_t firstFastUop = 0, numFastUops = 0;
        /** Member basic blocks, a slice of UopProgram::members. */
        uint32_t memberBegin = 0, memberCount = 0;
        /**
         * Superblock entered when no transfer uop fires: the
         * fall-through or tail-Jmpi successor of the last member, or
         * invalidSuper when the last member ends in Ret/Halt or falls
         * off the end of the kernel.
         */
        uint32_t defaultNext = invalidSuper;
        /** Static instructions across members (runaway accounting). */
        uint64_t instrs = 0;
    };

    std::vector<Superblock> supers;

    /** Member block ids, grouped per superblock in execution order. */
    std::vector<uint32_t> members;

    /**
     * Per-member *end* offsets into uops/fastUops (absolute indices,
     * parallel to members). A member's slice starts at the previous
     * member's end (or the superblock's first offset for the head).
     * Lets the trace path execute one basic block at a time.
     */
    std::vector<uint32_t> memberUopEnd;
    std::vector<uint32_t> memberFastUopEnd;

    /** The two uop streams. */
    std::vector<Uop> uops;
    std::vector<Uop> fastUops;

    /** Owning superblock of each basic block. */
    std::vector<uint32_t> superOf;
};

/**
 * Lower @p bin to a uop program. @p rel must be the relevance analysis
 * of the same binary; it selects the fast stream's instructions.
 */
UopProgram decodeUops(const KernelBinary &bin, const Relevance &rel);

} // namespace gt::isa

#endif // GT_ISA_UOP_HH
