#include "isa/uop.hh"

namespace gt::isa
{

namespace
{

constexpr uint32_t noBlock = 0xffffffffu;

/**
 * Per-block facts gathered before superblocks are formed.
 *
 * A block's *chain edge* is the unique unconditional successor edge a
 * superblock may extend through: fall-through from a block whose last
 * instruction is neither a terminator nor a Call, or a tail Jmpi. All
 * other edges (branch targets, conditional fall-throughs, call
 * targets, return sites, the dispatch entry into block 0) are
 * non-chain: their targets must stay superblock heads because control
 * can enter there dynamically.
 */
struct BlockFacts
{
    uint32_t chainNext = noBlock;
    /** Superblocks never extend past this block (ProfTimer must see
     * cycles advanced exactly through its own block; mid-block control
     * transfers as inline uops, valid only in singleton runs). */
    bool chainStop = false;
    /** Control op outside tail position — never fuse this block. */
    bool midControl = false;
    int inEdges = 0;
    int chainEdges = 0;
};

struct EdgeScan
{
    std::vector<BlockFacts> facts;

    explicit EdgeScan(const KernelBinary &bin) : facts(bin.blocks.size())
    {
        const size_t n = bin.blocks.size();
        if (n > 0)
            ++facts[0].inEdges; // dispatch entry
        for (size_t b = 0; b < n; ++b) {
            const BasicBlock &block = bin.blocks[b];
            BlockFacts &f = facts[b];
            const size_t ni = block.instrs.size();
            for (size_t i = 0; i < ni; ++i) {
                const Instruction &ins = block.instrs[i];
                const bool tail = i + 1 == ni;
                if (ins.cls() == OpClass::Instrumentation &&
                    ins.op == Opcode::ProfTimer) {
                    f.chainStop = true;
                }
                if (ins.cls() != OpClass::Control)
                    continue;
                if (!tail)
                    f.midControl = true;
                switch (ins.op) {
                  case Opcode::Jmpi:
                    if (tail) {
                        f.chainNext = chain(ins.target);
                    } else {
                        nonChain(ins.target);
                    }
                    break;
                  case Opcode::Brc:
                  case Opcode::Brnc:
                    nonChain(ins.target);
                    if (tail)
                        nonChain(b + 1);
                    break;
                  case Opcode::Call:
                    nonChain(ins.target);
                    nonChain(b + 1); // return site
                    break;
                  default: // Ret, Halt: no successor edges
                    break;
                }
            }
            f.chainStop = f.chainStop || f.midControl;
            // A block whose last instruction is not a control op falls
            // through unconditionally: the canonical chain edge.
            if (ni == 0 ||
                block.instrs.back().cls() != OpClass::Control) {
                f.chainNext = chain(b + 1);
            }
        }
    }

    /** Record a chain edge to @p target; @return the target id. */
    uint32_t
    chain(int64_t target)
    {
        if (target < 0 || (size_t)target >= facts.size())
            return noBlock;
        ++facts[target].inEdges;
        ++facts[target].chainEdges;
        return (uint32_t)target;
    }

    void
    nonChain(int64_t target)
    {
        if (target >= 0 && (size_t)target < facts.size())
            ++facts[target].inEdges;
    }

    /** May @p b be absorbed into its predecessor's superblock? */
    bool
    absorbable(uint32_t b) const
    {
        const BlockFacts &f = facts[b];
        return f.inEdges == 1 && f.chainEdges == 1 && !f.midControl;
    }
};

/** @return superOf[target], or invalidSuper for out-of-range targets
 * (transferring there reproduces the reference interpreter's
 * fell-off-the-end panic). */
uint32_t
superAt(const UopProgram &prog, int64_t target)
{
    if (target < 0 || (size_t)target >= prog.superOf.size())
        return UopProgram::invalidSuper;
    return prog.superOf[(size_t)target];
}

int
shapeBit(const Operand &o)
{
    return o.isImm() ? 1 : 0;
}

uint32_t
srcField(const Operand &o)
{
    return o.isImm() ? o.imm : o.reg;
}

/** Trap uop carrying the offending opcode for the panic message. */
Uop
trapUop(uint16_t trap_kind, const Instruction &ins)
{
    Uop u;
    u.kind = trap_kind;
    u.aux = (uint32_t)ins.op;
    return u;
}

/**
 * Lower one instruction of block @p b into @p u.
 * @return false when no uop is needed (a tail Jmpi already folded
 * into the superblock chain or its defaultNext).
 */
bool
lowerInstr(const UopProgram &prog, uint32_t b, const Instruction &ins,
           bool tail, bool mid_control, Uop &u)
{
    u = Uop{};
    u.width = ins.simdWidth;
    u.flag = ins.flag;
    u.dst = ins.dst;

    // Operand-absence traps mirror read_lane's panic: they fire only
    // if the malformed instruction is actually executed.
    auto absent = [&](const Operand &o) { return o.isNone(); };

    auto unary = [&]() -> bool {
        if (absent(ins.src0)) {
            u = trapUop(uopTrapAbsentOperand, ins);
            return true;
        }
        u.kind = uopKind(ins.op, shapeBit(ins.src0));
        u.s0 = srcField(ins.src0);
        return true;
    };
    auto binary = [&]() -> bool {
        if (absent(ins.src0) || absent(ins.src1)) {
            u = trapUop(uopTrapAbsentOperand, ins);
            return true;
        }
        u.kind = uopKind(ins.op,
                         shapeBit(ins.src0) | shapeBit(ins.src1) << 1);
        u.s0 = srcField(ins.src0);
        u.s1 = srcField(ins.src1);
        return true;
    };
    auto ternary = [&]() -> bool {
        if (absent(ins.src0) || absent(ins.src1) || absent(ins.src2)) {
            u = trapUop(uopTrapAbsentOperand, ins);
            return true;
        }
        u.kind = uopKind(ins.op, shapeBit(ins.src0) |
                                     shapeBit(ins.src1) << 1 |
                                     shapeBit(ins.src2) << 2);
        u.s0 = srcField(ins.src0);
        u.s1 = srcField(ins.src1);
        u.s2 = srcField(ins.src2);
        return true;
    };

    switch (ins.op) {
      case Opcode::Mov:
      case Opcode::Not:
      case Opcode::Frc:
      case Opcode::Sqrt:
      case Opcode::Rsqrt:
      case Opcode::Sin:
      case Opcode::Cos:
      case Opcode::Exp:
      case Opcode::Log:
        return unary();

      case Opcode::Sel:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Asr:
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Min:
      case Opcode::Max:
      case Opcode::Avg:
      case Opcode::FAdd:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::Dp4:
        return binary();

      case Opcode::Mad:
      case Opcode::FMad:
      case Opcode::Lrp:
      case Opcode::Pln:
        return ternary();

      case Opcode::Cmp: {
        if (absent(ins.src0) || absent(ins.src1)) {
            u = trapUop(uopTrapAbsentOperand, ins);
            return true;
        }
        if ((int)ins.cmpOp > (int)CmpOp::Ge) {
            u = trapUop(uopTrapBadOpcode, ins);
            return true;
        }
        u.kind = uopKind(ins.op, shapeBit(ins.src0) |
                                     shapeBit(ins.src1) << 1 |
                                     (int)ins.cmpOp << 2);
        u.s0 = srcField(ins.src0);
        u.s1 = srcField(ins.src1);
        return true;
      }

      case Opcode::Send: {
        if (ins.send.addrReg >= numRegisters ||
            (ins.send.isWrite && absent(ins.src0))) {
            u = trapUop(uopTrapAbsentOperand, ins);
            return true;
        }
        int sub = (ins.send.isWrite ? 1 : 0) |
            (ins.send.space == AddrSpace::Local ? 2 : 0) |
            (ins.send.isWrite ? shapeBit(ins.src0) << 2 : 0);
        u.kind = uopKind(ins.op, sub);
        u.s0 = ins.send.isWrite ? srcField(ins.src0) : 0;
        u.s1 = ins.send.addrReg;
        u.aux = (uint32_t)ins.send.offset;
        u.aux16 = ins.send.bytesPerLane;
        return true;
      }

      case Opcode::Jmpi:
        // A tail Jmpi is normally folded away (fused chain edge, or
        // the superblock's defaultNext) — but when control ops precede
        // it in the block, it must execute inline so it *overrides*
        // any transfer they already staged, as the reference
        // interpreter's last-write-wins next_pc does.
        if (tail && !mid_control)
            return false;
        u.kind = uopKind(ins.op, 0);
        u.aux = superAt(prog, ins.target);
        return true;

      case Opcode::Brc:
      case Opcode::Brnc: {
        if ((int)ins.flagMode > (int)FlagMode::All) {
            u = trapUop(uopTrapBadFlagMode, ins);
            return true;
        }
        u.kind = uopKind(ins.op, (int)ins.flagMode);
        u.aux = superAt(prog, ins.target);
        return true;
      }

      case Opcode::Call:
        u.kind = uopKind(ins.op, 0);
        u.aux = superAt(prog, ins.target);
        u.aux2 = superAt(prog, (int64_t)b + 1);
        return true;

      case Opcode::Ret:
      case Opcode::Halt:
        u.kind = uopKind(ins.op, 0);
        return true;

      case Opcode::ProfCount:
      case Opcode::ProfMem:
      case Opcode::ProfTimer:
        u.kind = uopKind(ins.op, 0);
        u.aux = ins.profSlot;
        u.aux2 = ins.profArg;
        return true;

      case Opcode::ProfAdd:
        if (absent(ins.src0)) {
            u = trapUop(uopTrapAbsentOperand, ins);
            return true;
        }
        u.kind = uopKind(ins.op, shapeBit(ins.src0));
        u.s0 = srcField(ins.src0);
        u.aux = ins.profSlot;
        return true;

      default:
        u = trapUop(uopTrapBadOpcode, ins);
        return true;
    }
}

/** defaultNext of a superblock whose last member is @p b. */
uint32_t
defaultNextOf(const UopProgram &prog, const KernelBinary &bin,
              uint32_t b)
{
    const BasicBlock &block = bin.blocks[b];
    if (block.instrs.empty())
        return superAt(prog, (int64_t)b + 1);
    const Instruction &last = block.instrs.back();
    switch (last.op) {
      case Opcode::Jmpi:
        return superAt(prog, last.target);
      case Opcode::Brc:
      case Opcode::Brnc:
        return superAt(prog, (int64_t)b + 1); // not-taken fall-through
      case Opcode::Call: // transfer always comes from the call uop
      case Opcode::Ret:
      case Opcode::Halt:
        return UopProgram::invalidSuper;
      default:
        return superAt(prog, (int64_t)b + 1);
    }
}

} // anonymous namespace

UopProgram
decodeUops(const KernelBinary &bin, const Relevance &rel)
{
    const size_t n = bin.blocks.size();
    UopProgram prog;
    prog.superOf.assign(n, UopProgram::invalidSuper);

    EdgeScan scan(bin);

    // Membership: grow a chain from every block that cannot be
    // absorbed, then sweep up stragglers (blocks whose unique chain
    // predecessor stopped early, e.g. at a ProfTimer) as fresh heads.
    std::vector<uint8_t> assigned(n, 0);
    auto grow = [&](uint32_t head) {
        const uint32_t sbi = (uint32_t)prog.supers.size();
        prog.supers.emplace_back();
        UopProgram::Superblock &sb = prog.supers.back();
        sb.memberBegin = (uint32_t)prog.members.size();
        uint32_t b = head;
        while (true) {
            prog.members.push_back(b);
            prog.superOf[b] = sbi;
            assigned[b] = 1;
            const BlockFacts &f = scan.facts[b];
            uint32_t t = f.chainNext;
            if (f.chainStop || t == noBlock || assigned[t] ||
                !scan.absorbable(t)) {
                break;
            }
            b = t;
        }
        sb.memberCount =
            (uint32_t)prog.members.size() - sb.memberBegin;
    };
    for (uint32_t b = 0; b < n; ++b) {
        if (!assigned[b] && !scan.absorbable(b))
            grow(b);
    }
    for (uint32_t b = 0; b < n; ++b) {
        if (!assigned[b])
            grow(b);
    }

    // Emission: lower each member into both streams. The fast stream
    // keeps only relevance-sliced instructions, exactly the set the
    // reference interpreter's Fast mode evaluates.
    prog.memberUopEnd.resize(prog.members.size());
    prog.memberFastUopEnd.resize(prog.members.size());
    for (uint32_t s = 0; s < prog.supers.size(); ++s) {
        UopProgram::Superblock &sb = prog.supers[s];
        sb.firstUop = (uint32_t)prog.uops.size();
        sb.firstFastUop = (uint32_t)prog.fastUops.size();
        for (uint32_t j = 0; j < sb.memberCount; ++j) {
            const uint32_t m = prog.members[sb.memberBegin + j];
            const BasicBlock &block = bin.blocks[m];
            sb.instrs += block.instrs.size();
            for (size_t i = 0; i < block.instrs.size(); ++i) {
                const Instruction &ins = block.instrs[i];
                const bool tail = i + 1 == block.instrs.size();
                Uop u;
                if (lowerInstr(prog, m, ins, tail,
                               scan.facts[m].midControl, u)) {
                    prog.uops.push_back(u);
                    if (rel.relevant[m][i])
                        prog.fastUops.push_back(u);
                }
                // The reference interpreter leaves the block the
                // moment a Halt retires; anything after a mid-block
                // Halt must not be materialized.
                if (ins.op == Opcode::Halt)
                    break;
            }
            prog.memberUopEnd[sb.memberBegin + j] =
                (uint32_t)prog.uops.size();
            prog.memberFastUopEnd[sb.memberBegin + j] =
                (uint32_t)prog.fastUops.size();
        }
        sb.numUops = (uint32_t)prog.uops.size() - sb.firstUop;
        sb.numFastUops =
            (uint32_t)prog.fastUops.size() - sb.firstFastUop;
        // Threaded dispatch chains uop to uop without a loop bound;
        // a stop sentinel terminates each superblock's run. Appended
        // after the counts so numUops/numFastUops and the member end
        // offsets keep describing only real uops.
        Uop stop;
        stop.kind = uopStop;
        prog.uops.push_back(stop);
        prog.fastUops.push_back(stop);
        const uint32_t last_block =
            prog.members[sb.memberBegin + sb.memberCount - 1];
        sb.defaultNext = defaultNextOf(prog, bin, last_block);
    }
    return prog;
}

} // namespace gt::isa
