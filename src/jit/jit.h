/**
 * @file
 * Native x86-64 execution of selected HVX instruction DAGs.
 *
 * jit::Program::compile lowers a selected program to host machine
 * code: every node's value lives in a per-lane int64 arena (the same
 * carrier representation the interpreters use), and lane counts and
 * immediates are compile-time constants, so every HVX index map
 * (deinterleave, interleave, concat, align, rotate) becomes a
 * constant slot and the emitted code is relocation-free x86-64. Its
 * branches are each load's interior/edge test, its edge tiles' loop
 * over the lanes and, at the AVX2 tier, one counted loop per run of
 * a node's repeating lane groups; the rest is straight-line.
 * Every computing node's code is generated from its lane function in
 * hvx/semantics.h (jit/lower.cc), four lanes per AVX2 instruction, or
 * one lane per general-purpose instruction at the scalar tier; both
 * reproduce base/arith.h bit for bit. The AVX2 tier takes cheaper
 * exact forms where a range analysis of the recorded lanes allows.
 *
 * The compiled function has C ABI `void fn(Frame *)`: the frame
 * carries the tile origin (x, y), the bound input-buffer
 * descriptors, the arena pointer and the row the tile's lanes are
 * stored to. Splat values are loop invariant and are evaluated
 * host-side when a Runner binds, straight into the slots of its own
 * arena copy; so one compiled program runs on several threads at
 * once, one Runner each.
 *
 * Only meaningful on x86-64 hosts: available() is false elsewhere
 * and compile() throws UserError, so callers can gate cleanly.
 */
#ifndef RAKE_JIT_JIT_H
#define RAKE_JIT_JIT_H

#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "base/value.h"
#include "hvx/instr.h"
#include "jit/exec_buffer.h"

namespace rake::jit {

/** True when this host can execute jit-compiled programs. */
bool available();

/**
 * The tiers the lowerer can emit: one lane per general-purpose
 * instruction, or four int64 lanes per AVX2 instruction.
 */
enum class SimdLevel { Scalar, Avx2 };

std::string to_string(SimdLevel level);

/**
 * The tier the lowerer will use: AVX2 when the CPU and OS support it,
 * scalar otherwise, unless RAKE_JIT_SIMD=scalar|avx2 forces one
 * (forcing AVX2 where it is missing, or any other value, throws
 * UserError; forcing scalar is always allowed and is how tests cover
 * both tiers on one machine).
 */
SimdLevel simd_level();

/** One bound input buffer, as the compiled code addresses it. */
struct BufferDesc {
    const int64_t *data = nullptr;
    int64_t width = 0;
    int64_t height = 0;
    int64_t x0 = 0;
    int64_t y0 = 0;
};

/** The single argument of a compiled program (SysV: rdi). */
struct Frame {
    int64_t x = 0;
    int64_t y = 0;
    const BufferDesc *bufs = nullptr;
    int64_t *arena = nullptr;
    int64_t *dst = nullptr; ///< the tile's output lanes
};

/** std::allocator with the cache-line alignment the arena needs. */
template <typename T>
struct LineAligned {
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    LineAligned() = default;
    template <typename U>
    LineAligned(const LineAligned<U> &)
    {
    }

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
    }

    void deallocate(T *p, size_t) { ::operator delete(p, kAlign); }

    bool operator==(const LineAligned &) const { return true; }
};

/**
 * Per-lane int64 slots, 64-byte aligned: node runs and constants sit
 * in 4-lane groups, so no group access straddles a cache line.
 */
using Arena = std::vector<int64_t, LineAligned<int64_t>>;

class Program;

/**
 * One thread's execution of a compiled Program under one env: its own
 * buffer descriptors, its own copy of the arena with the env's splat
 * values filled in, and a Frame of its own per tile. Runners of one
 * program run concurrently. They read the env's buffer cells in
 * place, so that storage (not the Env object) must outlive the runner,
 * and so must the program.
 */
class Runner
{
  public:
    Runner(const Program &program, const Env &env);

    /**
     * Resolve buffer descriptors against env.buffers and evaluate
     * every splat's scalar expression into its arena slots.
     */
    void bind(const Env &env);

    /**
     * Execute the tile at (x, y); the compiled code stores its lanes
     * straight to dst.
     */
    void run(int x, int y, int64_t *dst);

  private:
    const Program *program_;
    std::vector<BufferDesc> bufs_;
    Arena arena_;
};

/**
 * A compiled, executable HVX program. Runners hold its address, so it
 * is neither copied nor moved.
 */
class Program
{
  public:
    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;

    /**
     * Lower and seal `code`. Throws UserError when the host is not
     * x86-64, when W^X sealing is refused, or when the program
     * contains a sketch hole (holes never appear in selected code).
     */
    static std::unique_ptr<Program> compile(const hvx::InstrPtr &code);

    /**
     * Bind an environment for run(): the program's own Runner binds
     * to it. The env's buffer cells must outlive all run() calls made
     * under this binding. Callers bind once per pass — there is
     * deliberately no "already bound to this env?" query: envs are
     * typically stack locals, and a fresh env can land on a dead
     * one's address, so pointer identity cannot tell a live binding
     * from a stale one (that aliasing once read freed buffer
     * descriptors; binding again is always safe).
     */
    void bind(const Env &env);

    /**
     * Execute one tile at origin (x, y): the single-tile entry point
     * of probes and oracles. Returns the output value; the reference
     * is owned by the program and valid until the next run(). bind()
     * must have been called. Whole images run on one Runner per
     * worker instead (pipeline/executor.h).
     */
    const Value &run(int x, int y);

    const VecType &out_type() const { return out_type_; }

    /** Buffer id -> element type the program loads from it. */
    const std::map<int, ScalarType> &load_elems() const
    {
        return load_elems_;
    }

    /** Bytes of assembled machine code (diagnostics). */
    size_t code_size() const { return code_.size(); }

    /** The packed tier this program was lowered with. */
    SimdLevel simd() const { return simd_; }

  private:
    friend class Lowerer;
    friend class Runner;
    Program() = default;

    struct SplatSite {
        hir::ExprPtr expr;
        int64_t slot = 0;
        int lanes = 0;
        ScalarType elem = ScalarType::Int32;
    };

    ExecBuffer code_;
    void (*fn_)(Frame *) = nullptr;
    Arena arena_;              ///< zeroed slots, constant pool, padding
    std::vector<int> buf_ids_; ///< buffer id per descriptor index
    std::vector<SplatSite> splats_;
    std::map<int, ScalarType> load_elems_;
    VecType out_type_;
    SimdLevel simd_ = SimdLevel::Scalar;

    std::optional<Runner> bound_;
    Value out_value_;
};

} // namespace rake::jit

#endif // RAKE_JIT_JIT_H
