/**
 * @file
 * The HVX instruction-set model: opcode enumeration and per-opcode
 * static metadata (mnemonic, execution resource, latency, category).
 *
 * Each opcode here is a *family* of concrete HVX intrinsics — the
 * element type of the instruction node selects the concrete variant
 * (e.g. VAdd over u8 / u16 / i16 / i32 corresponds to vaddub, vadduh,
 * vaddh, vaddw). Counting type variants, the table below covers on
 * the order of two hundred concrete intrinsics, matching the paper's
 * description of HVX as "hundreds of intrinsics implementing
 * relatively few compute patterns".
 *
 * Lane semantics live in hvx/semantics.h, one definition that the
 * interpreter runs over int64 and the z3 prover over bit-vectors;
 * costs in hvx/cost.cc.
 */
#ifndef RAKE_HVX_ISA_H
#define RAKE_HVX_ISA_H

#include <cstdint>
#include <string>

namespace rake::hvx {

/** Execution resource classes of the HVX VLIW cluster (paper §6). */
enum class Resource : uint8_t {
    Load,    ///< vector memory unit
    Mpy,     ///< multiplier array
    Shift,   ///< shift unit
    Permute, ///< permute / crossbar network
    Alu,     ///< lane-parallel ALU
    None,    ///< free (register renaming / loop-invariant hoisted)
};

std::string to_string(Resource r);

/** Number of Resource values that consume issue slots. */
inline constexpr int kNumCostedResources = 5;

/** HVX opcode families. */
enum class Opcode : uint8_t {
    // --- Loads and register-file ops --------------------------------
    VRead,    ///< vector load from a buffer (LoadRef payload)
    VSplat,   ///< broadcast a scalar register (loop-invariant)
    VBitcast, ///< reinterpret register bytes as another element type

    // --- Data movement (swizzles) -----------------------------------
    VCombine, ///< concatenate two vectors into a pair
    VHi,      ///< upper half of a pair
    VLo,      ///< lower half of a pair
    VAlign,   ///< funnel window: concat(a,b)[n .. n+L)
    VRor,     ///< rotate lanes right by an immediate
    VShuffVdd,///< interleave the halves of a pair (vshuff with -1)
    VDealVdd, ///< deinterleave a pair (vdeal with -1)
    VMux,     ///< per-lane select by a predicate vector

    // --- Narrowing packs ---------------------------------------------
    VPackE,   ///< truncating pack of two vectors (even bytes; vshuffeb)
    VPackO,   ///< high-half pack of two vectors (odd bytes; vshuffob)
    VSat,     ///< saturating pack of two vectors (vsat family)
    VPackSat, ///< saturating pack (vpack:sat family; permute resource)

    // --- Widening moves ----------------------------------------------
    VZxt,     ///< zero-extend to the next wider type (vzxt / vunpacku)
    VSxt,     ///< sign-extend to the next wider type (vsxt / vunpack)

    // --- Lane-parallel ALU -------------------------------------------
    VAdd,
    VAddSat,
    VSub,
    VSubSat,
    VAvg,     ///< (a + b) >> 1 without overflow
    VAvgRnd,  ///< (a + b + 1) >> 1
    VNavg,    ///< (a - b) >> 1
    VAbsDiff,
    VMax,
    VMin,
    VAnd,
    VOr,
    VXor,
    VNot,
    VCmpGt,   ///< predicate: a > b
    VCmpEq,   ///< predicate: a == b

    // --- Shift unit ----------------------------------------------------
    VAsl,             ///< shift left (immediate)
    VAsr,             ///< arithmetic shift right (immediate)
    VAsrRnd,          ///< arithmetic shift right with rounding
    VLsr,             ///< logical shift right (immediate)
    VAsrNarrow,       ///< shift right + truncating pack of two vectors
    VAsrNarrowSat,    ///< shift right + saturating pack
    VAsrNarrowRndSat, ///< shift right + round + saturating pack
    VRoundSat,        ///< round + saturating pack (vround)

    // --- Multiplier array ----------------------------------------------
    VMpy,       ///< widening multiply, element-wise
    VMpyAcc,    ///< widening multiply-accumulate
    VMpyi,      ///< non-widening multiply
    VMpyiAcc,   ///< non-widening multiply-accumulate
    VMpa,       ///< a*w0 + b*w1, widening (2-multiply-add)
    VMpaAcc,    ///< accumulating vmpa
    VTmpy,      ///< 3-tap sliding-window multiply-add, weights (w0 w1 1)
    VTmpyAcc,   ///< accumulating vtmpy
    VDmpy,      ///< 2-tap sliding-window multiply-add
    VDmpyAcc,   ///< accumulating vdmpy
    VRmpy,      ///< 4-tap sliding-window multiply-add (double widening)
    VRmpyAcc,   ///< accumulating vrmpy
    VDotRmpy,   ///< 4-element dot product reduction (vrmpy vector form)
    VDotRmpyAcc,///< accumulating dot product
    VMpyIE,     ///< word x even (unsigned) halfword multiply
    VMpyIO,     ///< word x odd halfword multiply

    // --- Synthesis-only -------------------------------------------------
    Hole,       ///< ??load / ??swizzle placeholder in a sketch (§4)
};

/** Number of Opcode values. */
inline constexpr int kNumOpcodes = static_cast<int>(Opcode::Hole) + 1;

/** Static metadata of an opcode family. */
struct OpcodeInfo {
    const char *mnemonic;  ///< base mnemonic ("vadd", "vtmpy", ...)
    Resource resource;     ///< execution resource consumed
    int latency;           ///< result latency in cycles
    bool is_swizzle;       ///< pure data movement (no new values)
    bool is_compute;       ///< produces new values (sketch grammar)
    int num_imms;          ///< immediate operand count
    int num_args;          ///< register operand count
};

/** Metadata for one opcode; table in isa.cc. */
const OpcodeInfo &info(Opcode op);

/** Mnemonic of the opcode family. */
std::string to_string(Opcode op);

} // namespace rake::hvx

#endif // RAKE_HVX_ISA_H
