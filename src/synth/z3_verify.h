/**
 * @file
 * SMT-backed equivalence proofs via z3 (the paper's Rosette/z3 oracle).
 *
 * Expressions from all four IRs (HIR, UIR, HVX, Neon) are encoded
 * lane-wise into 64-bit bit-vector terms over symbolic buffer cells
 * and scalar parameters. The encoding is each IR's lane_semantics
 * (hir/semantics.h and its siblings) instantiated over z3 bit-vectors
 * (synth/z3_lanes.h): the one definition the interpreters run over
 * int64, so a proof is about the semantics the interpreters compute.
 * Encoding is lazy per output lane and the lanes are proved one at a
 * time, which directly implements the paper's incremental lane
 * verification (§4.1): proving lane 0 first rejects most wrong
 * candidates before later lanes are ever built, and a lane whose
 * query is a renaming of an already proved one is not solved again.
 *
 * When a query is satisfiable, the model is converted back into a
 * concrete Env so it can join the CEGIS example pool — closing the
 * full counter-example-guided loop.
 */
#ifndef RAKE_SYNTH_Z3_VERIFY_H
#define RAKE_SYNTH_Z3_VERIFY_H

#include <optional>
#include <string>
#include <vector>

#include "backend/instr_handle.h"
#include "hir/expr.h"
#include "hvx/instr.h"
#include "synth/spec.h"
#include "uir/uexpr.h"

namespace rake::backend {
class TargetISA;
} // namespace rake::backend

namespace rake::synth {

/** Controls which lanes are proven and the solver budget. */
struct Z3Options {
    /** Output lanes to prove equal; empty selects {0, 1, mid, last}. */
    std::vector<int> lanes;
    unsigned timeout_ms = 20000;
};

/** Outcome of a proof attempt. */
enum class ProofResult {
    Proved,       ///< unsat: the selected lanes are equal for all inputs
    Refuted,      ///< sat: a concrete counter-example exists
    Unknown,      ///< solver timeout / incompleteness
};

/** Result plus the counter-example when refuted. */
struct ProofOutcome {
    ProofResult result = ProofResult::Unknown;
    std::optional<Env> counterexample;
};

/** Prove an HVX implementation equal to the HIR reference. */
ProofOutcome z3_check(const hir::ExprPtr &ref, const hvx::InstrPtr &impl,
                      const Spec &spec, const Z3Options &opts = {});

/** Prove a UIR lifting equal to the HIR reference. */
ProofOutcome z3_check(const hir::ExprPtr &ref, const uir::UExprPtr &impl,
                      const Spec &spec, const Z3Options &opts = {});

/** Prove two HIR expressions equal (used by simplifier tests). */
ProofOutcome z3_check(const hir::ExprPtr &ref, const hir::ExprPtr &impl,
                      const Spec &spec, const Z3Options &opts = {});

/**
 * TargetISA-generic entry point: prove a backend's type-erased
 * implementation equal to the HIR reference. The concrete DAG is
 * recovered through the backend's own sexpr round-trip, so no
 * handle-layout assumption leaks out of the backend, and encoded
 * with that ISA's lane semantics (HVX or Neon; any other backend is
 * an internal error). Unknown means the solver gave up; the rule
 * miner then falls back to exhaustive evaluation (synth/rules.h).
 */
ProofOutcome z3_check(const hir::ExprPtr &ref,
                      const backend::TargetISA &isa,
                      const backend::InstrHandle &impl, const Spec &spec,
                      const Z3Options &opts = {});

} // namespace rake::synth

#endif // RAKE_SYNTH_Z3_VERIFY_H
