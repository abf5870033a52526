#include "reference/interpreter.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"
#include "isa/lane_ops.hh"

namespace gt::reference
{

using isa::AddrSpace;
using isa::FlagMode;
using isa::Instruction;
using isa::KernelBinary;
using isa::Opcode;
using isa::Operand;
using namespace isa::lane;

namespace
{

/** Per-thread scratch local (shared) memory size. */
constexpr uint64_t localMemBytes = 16 * 1024;

/** Maximum subroutine call depth. */
constexpr size_t maxCallDepth = 64;

} // anonymous namespace

/** Architectural state of one hardware thread. */
struct Interpreter::ThreadCtx
{
    uint32_t regs[isa::numRegisters][isa::maxSimdWidth];
    uint8_t flags[isa::numFlags][isa::maxSimdWidth];
    std::vector<uint32_t> callStack;
    std::vector<uint8_t> local;
    double issueCycles = 0.0;
    double lastTimer = 0.0;
    uint64_t instrsExecuted = 0;

    ThreadCtx() : local(localMemBytes, 0) {}

    /**
     * Prepare the context for one thread, clearing exactly what the
     * executor clears: the plan's register read-set and, for kernels
     * that touch it, local memory. Anything else stays stale on
     * purpose — the plan proves no instruction can observe it, and a
     * wrong proof shows up as a mismatch against the executor.
     */
    void
    reset(const gpu::Dispatch &dispatch, uint64_t thread_idx,
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

Interpreter::Interpreter(const gpu::DeviceConfig &config_,
                         gpu::DeviceMemory &memory_)
    : config(config_), memory(memory_),
      ctxBuf(std::make_unique<ThreadCtx>())
{
}

Interpreter::~Interpreter() = default;

const gpu::ExecPlan &
Interpreter::plan(const KernelBinary &bin)
{
    auto &[generation, cached] = plans[&bin];
    if (!cached || generation != bin.generation ||
        !cached->matchesShape(bin)) {
        cached = std::make_unique<gpu::ExecPlan>(
            gpu::Executor::buildPlan(bin, config));
        generation = bin.generation;
    }
    return *cached;
}

gpu::ExecProfile
Interpreter::run(const gpu::Dispatch &dispatch, gpu::Executor::Mode mode,
                 gpu::TraceBuffer *trace, const MemAccessFn &mem_access)
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
    const gpu::ExecPlan &p = plan(bin);

    bool fast = mode == gpu::Executor::Mode::Fast;
    if (fast && (p.rel.needsFullExec || mem_access))
        fast = false;

    uint64_t num_threads = dispatch.numThreads();

    gpu::ExecProfile profile;
    profile.numThreads = num_threads;
    profile.blockCounts.assign(bin.blocks.size(), 0);
    std::vector<uint64_t> trace_deltas(trace ? trace->size() : 0, 0);

    // Each thread counts into fresh zeroed scratch, scaled by the
    // number of threads it stands for.
    std::vector<uint64_t> counts, deltas;
    auto run_scaled = [&](uint64_t thread_idx, uint64_t weight) {
        counts.assign(bin.blocks.size(), 0);
        deltas.assign(trace_deltas.size(), 0);
        double cycles = runThread(dispatch, thread_idx, fast, p, counts,
                                  deltas, mem_access);
        for (size_t b = 0; b < counts.size(); ++b)
            profile.blockCounts[b] += counts[b] * weight;
        for (size_t s = 0; s < deltas.size(); ++s)
            trace_deltas[s] += deltas[s] * weight;
        profile.threadCycles += cycles * (double)weight;
    };

    if (fast && !p.rel.threadDependent) {
        // Every thread behaves identically: run one, scale exactly.
        run_scaled(0, num_threads);
    } else if (fast && num_threads > maxExplicitThreads) {
        // Stratified sample, one hashed pick per stratum, each
        // standing for its whole stratum.
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
Interpreter::blockTrace(const gpu::Dispatch &dispatch,
                        uint64_t thread_idx, uint64_t max_len)
{
    GT_ASSERT(dispatch.binary, "dispatch without binary");
    const KernelBinary &bin = *dispatch.binary;
    const gpu::ExecPlan &p = plan(bin);
    std::vector<uint64_t> counts(bin.blocks.size(), 0);
    // Instrumented binaries can be traced too: their prof ops still
    // execute, into a scratch delta vector.
    uint32_t max_slot = 0;
    for (const auto &block : bin.blocks) {
        for (const auto &ins : block.instrs) {
            if (ins.cls() == isa::OpClass::Instrumentation)
                max_slot = std::max(max_slot, ins.profSlot + 1);
        }
    }
    std::vector<uint64_t> deltas(max_slot, 0);
    std::vector<uint32_t> trace;
    runThread(dispatch, thread_idx, !p.rel.needsFullExec, p, counts,
              deltas, {}, &trace, max_len);
    return trace;
}

double
Interpreter::runThread(const gpu::Dispatch &dispatch, uint64_t thread_idx,
                       bool fast, const gpu::ExecPlan &p,
                       std::vector<uint64_t> &block_counts,
                       std::vector<uint64_t> &trace_deltas,
                       const MemAccessFn &mem_access,
                       std::vector<uint32_t> *block_trace,
                       uint64_t trace_max_len)
{
    const KernelBinary &bin = *dispatch.binary;
    ThreadCtx &ctx = *ctxBuf;
    ctx.reset(dispatch, thread_idx, p.clearRegs, p.usesLocal);

    auto read_lane = [&](const Operand &opnd, int lane) -> uint32_t {
        switch (opnd.kind) {
          case Operand::Kind::Imm:
            return opnd.imm;
          case Operand::Kind::Reg:
            return ctx.regs[opnd.reg][lane];
          default:
            panic(bin.name, ": read of absent operand");
        }
    };

    auto prof_accum = [&](const Instruction &ins, uint64_t delta) {
        GT_ASSERT(!trace_deltas.empty(),
                  bin.name, ": instrumented binary executed without "
                  "a trace buffer");
        GT_ASSERT(ins.profSlot < trace_deltas.size(),
                  bin.name, ": trace slot out of range");
        trace_deltas[ins.profSlot] += delta;
    };

    uint32_t pc = 0;
    bool running = true;
    while (running) {
        const isa::BasicBlock &block = bin.blocks[pc];
        if (block_trace) {
            if (block_trace->size() >= trace_max_len)
                break;
            block_trace->push_back(pc);
        }
        ++block_counts[pc];
        ctx.issueCycles += p.blockCycles[pc];
        ctx.instrsExecuted += p.blockInstrs[pc];
        if (ctx.instrsExecuted > threadInstrLimit) {
            panic(bin.name, ": thread ", thread_idx, " exceeded the ",
                  threadInstrLimit, "-instruction runaway limit");
        }

        uint32_t next_pc = pc + 1;
        bool terminated = false;

        auto exec = [&](const Instruction &ins) {
            using U = uint32_t;
            int width = ins.simdWidth;
            auto unary = [&](auto f) {
                for (int l = 0; l < width; ++l)
                    ctx.regs[ins.dst][l] = f(read_lane(ins.src0, l));
            };
            auto binary = [&](auto f) {
                for (int l = 0; l < width; ++l)
                    ctx.regs[ins.dst][l] = f(read_lane(ins.src0, l),
                                             read_lane(ins.src1, l));
            };
            auto ternary = [&](auto f) {
                for (int l = 0; l < width; ++l)
                    ctx.regs[ins.dst][l] = f(read_lane(ins.src0, l),
                                             read_lane(ins.src1, l),
                                             read_lane(ins.src2, l));
            };
            switch (ins.op) {
              case Opcode::Mov: unary([](U a) { return a; }); break;
              case Opcode::Sel:
                for (int l = 0; l < width; ++l) {
                    ctx.regs[ins.dst][l] = ctx.flags[ins.flag][l]
                        ? read_lane(ins.src0, l)
                        : read_lane(ins.src1, l);
                }
                break;
              case Opcode::And: binary([](U a, U b) { return a & b; }); break;
              case Opcode::Or: binary([](U a, U b) { return a | b; }); break;
              case Opcode::Xor: binary([](U a, U b) { return a ^ b; }); break;
              case Opcode::Not: unary([](U a) { return ~a; }); break;
              case Opcode::Shl:
                binary([](U a, U b) { return a << (b & 31); });
                break;
              case Opcode::Shr:
                binary([](U a, U b) { return a >> (b & 31); });
                break;
              case Opcode::Asr:
                binary([](U a, U b) { return (U)((int32_t)a >> (b & 31)); });
                break;
              case Opcode::Cmp:
                for (int l = 0; l < width; ++l) {
                    ctx.flags[ins.flag][l] =
                        isa::evalCmp(ins.cmpOp, read_lane(ins.src0, l),
                                     read_lane(ins.src1, l));
                }
                break;
              case Opcode::Add: binary([](U a, U b) { return a + b; }); break;
              case Opcode::Sub: binary([](U a, U b) { return a - b; }); break;
              case Opcode::Mul: binary([](U a, U b) { return a * b; }); break;
              case Opcode::Mad:
                ternary([](U a, U b, U c) { return a * b + c; });
                break;
              case Opcode::Min:
                binary([](U a, U b) {
                    return (U)std::min((int32_t)a, (int32_t)b);
                });
                break;
              case Opcode::Max:
                binary([](U a, U b) {
                    return (U)std::max((int32_t)a, (int32_t)b);
                });
                break;
              case Opcode::Avg:
                binary([](U a, U b) {
                    return (U)(((uint64_t)a + b + 1) >> 1);
                });
                break;
              case Opcode::FAdd: binary(fAddBits); break;
              case Opcode::FMul: binary(fMulBits); break;
              case Opcode::FMad: ternary(fMadBits); break;
              case Opcode::FDiv: binary(fDivBits); break;
              case Opcode::Frc: unary(frcBits); break;
              case Opcode::Sqrt: unary(sqrtBits); break;
              case Opcode::Rsqrt: unary(rsqrtBits); break;
              case Opcode::Sin: unary(sinBits); break;
              case Opcode::Cos: unary(cosBits); break;
              case Opcode::Exp: unary(exp2Bits); break;
              case Opcode::Log: unary(log2Bits); break;
              case Opcode::Dp4:
                for (int l = 0; l < width; ++l) {
                    int base = l & ~3;
                    float acc = 0.0f;
                    for (int k = 0; k < 4; ++k) {
                        acc = dp4Step(acc,
                                      read_lane(ins.src0, base + k),
                                      read_lane(ins.src1, base + k));
                    }
                    ctx.regs[ins.dst][l] = asBits(acc);
                }
                break;
              case Opcode::Lrp: ternary(lrpBits); break;
              case Opcode::Pln: ternary(fMadBits); break;
              case Opcode::Send: {
                bool is_local = ins.send.space == AddrSpace::Local;
                for (int l = 0; l < width; ++l) {
                    uint64_t addr =
                        (uint64_t)ctx.regs[ins.send.addrReg][l] +
                        (int64_t)ins.send.offset;
                    if (is_local) {
                        uint64_t off = addr % (localMemBytes - 4);
                        if (ins.send.isWrite) {
                            uint32_t v = read_lane(ins.src0, l);
                            std::memcpy(ctx.local.data() + off, &v, 4);
                        } else {
                            uint32_t v;
                            std::memcpy(&v, ctx.local.data() + off, 4);
                            ctx.regs[ins.dst][l] = v;
                        }
                        continue;
                    }
                    if (ins.send.isWrite) {
                        uint32_t v = read_lane(ins.src0, l);
                        for (int b = 0; b < ins.send.bytesPerLane;
                             b += 4) {
                            memory.write32(addr + (uint64_t)b, v);
                        }
                    } else {
                        ctx.regs[ins.dst][l] = memory.read32(addr);
                    }
                    if (mem_access) {
                        mem_access(addr, ins.send.bytesPerLane,
                                   ins.send.isWrite);
                    }
                }
                break;
              }
              case Opcode::Jmpi:
                next_pc = (uint32_t)ins.target;
                break;
              case Opcode::Brc:
              case Opcode::Brnc: {
                bool cond;
                switch (ins.flagMode) {
                  case FlagMode::Lane0:
                    cond = ctx.flags[ins.flag][0];
                    break;
                  case FlagMode::Any: {
                    cond = false;
                    for (int l = 0; l < width; ++l)
                        cond = cond || ctx.flags[ins.flag][l];
                    break;
                  }
                  case FlagMode::All: {
                    cond = true;
                    for (int l = 0; l < width; ++l)
                        cond = cond && ctx.flags[ins.flag][l];
                    break;
                  }
                  default:
                    panic("invalid flag mode");
                }
                if (ins.op == Opcode::Brnc)
                    cond = !cond;
                if (cond)
                    next_pc = (uint32_t)ins.target;
                break;
              }
              case Opcode::Call:
                GT_ASSERT(ctx.callStack.size() < maxCallDepth,
                          bin.name, ": call stack overflow");
                ctx.callStack.push_back(pc + 1);
                next_pc = (uint32_t)ins.target;
                break;
              case Opcode::Ret:
                GT_ASSERT(!ctx.callStack.empty(),
                          bin.name, ": ret with empty call stack");
                next_pc = ctx.callStack.back();
                ctx.callStack.pop_back();
                break;
              case Opcode::Halt:
                terminated = true;
                break;
              case Opcode::ProfCount:
              case Opcode::ProfMem:
                prof_accum(ins, ins.profArg);
                break;
              case Opcode::ProfAdd:
                prof_accum(ins, read_lane(ins.src0, 0));
                break;
              case Opcode::ProfTimer: {
                double now = ctx.issueCycles;
                prof_accum(ins, (uint64_t)(now - ctx.lastTimer));
                ctx.lastTimer = now;
                break;
              }
              default:
                panic(bin.name, ": unimplemented opcode ",
                      isa::opcodeName(ins.op));
            }
        };

        // Fast mode evaluates only the relevance slice.
        const auto &relevant = p.rel.relevant[pc];
        for (size_t i = 0; i < block.instrs.size() && !terminated; ++i) {
            if (!fast || relevant[i])
                exec(block.instrs[i]);
        }

        if (terminated)
            break;
        GT_ASSERT(next_pc < bin.blocks.size(),
                  bin.name, ": fell off the end of the kernel");
        pc = next_pc;
    }

    return ctx.issueCycles;
}

ocl::DispatchResult
executeOnDriver(ocl::GpuDriver &driver, Interpreter &interp,
                uint32_t kernel_id, uint64_t global_size,
                uint8_t simd_width, const std::vector<uint32_t> &args,
                const MemAccessFn &mem_access)
{
    gpu::Dispatch dispatch;
    dispatch.binary = &driver.binary(kernel_id);
    dispatch.globalSize = global_size;
    dispatch.simdWidth = simd_width;
    dispatch.args = args;

    ocl::DispatchResult result;
    result.kernelId = kernel_id;
    result.kernelName = dispatch.binary->name;
    result.globalSize = global_size;
    result.args = args;
    result.profile = interp.run(dispatch, gpu::Executor::Mode::Full,
                                &driver.traceBuffer(), mem_access);
    if (driver.observer())
        driver.observer()->onDispatchComplete(result,
                                              driver.traceBuffer());
    return result;
}

} // namespace gt::reference
