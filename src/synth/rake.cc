#include "synth/rake.h"

#include "backend/hvx_backend.h"
#include "hir/simplify.h"
#include "support/error.h"
#include "synth/cache.h"
#include "synth/persist.h"
#include "synth/rules.h"

namespace rake::synth {

const char *
to_string(SynthStatus status)
{
    switch (status) {
      case SynthStatus::Ok:
        return "ok";
      case SynthStatus::NoSolution:
        return "no_solution";
      case SynthStatus::TimedOut:
        return "timed_out";
      case SynthStatus::Error:
        return "error";
    }
    return "unknown";
}

namespace {

/**
 * Stage options with the query deadline folded in. The per-stage
 * deadlines stay combinable so an embedder can still bound one stage
 * tighter than the whole query.
 */
RakeOptions
with_deadline(const RakeOptions &opts)
{
    RakeOptions o = opts;
    o.verifier.deadline = o.verifier.deadline.sooner(o.deadline);
    o.lower.deadline = o.lower.deadline.sooner(o.deadline);
    return o;
}

/**
 * The three-stage synthesis proper, uncached. Lifting (Algorithm 1)
 * is shared across every target — the §6 retargeting claim; sketch
 * and swizzle synthesis (Algorithm 2) go through the backend's
 * grammar, swizzle repertoire and cost model. The optional final SMT
 * proof (§4.1 incremental verification) takes the original
 * un-simplified expression as the reference.
 */
std::optional<BackendRakeResult>
synthesize(const hir::ExprPtr &expr, const hir::ExprPtr &normalized,
           backend::TargetISA &isa, const RakeOptions &opts)
{
    Spec spec = Spec::from_expr(normalized);
    ExamplePool pool(spec, opts.seed);
    Verifier verifier(spec, pool, opts.verifier);

    BackendRakeResult result;
    LiftResult lifted = lift_to_uir(verifier);
    result.lifted = lifted.expr;
    result.lift = lifted.stats;
    if (!lifted.expr)
        return std::nullopt;

    auto lowered =
        lower_with_backend(verifier, lifted.expr, isa, opts.lower);
    if (!lowered)
        return std::nullopt;
    result.instr = lowered->instr;
    result.lower = lowered->stats;

    if (opts.z3_prove) {
        result.proof = z3_check(expr, isa, result.instr, spec).result;
        if (result.proof == ProofResult::Refuted)
            return std::nullopt;
    }
    return result;
}

/**
 * The rule-first stage: consulted after both cache tiers miss, before
 * sketch enumeration + CEGIS, with the backend's own version keys. A
 * hit carries zero stage statistics (no query ran) and, when the
 * final-proof knob is set, the same z3 check synthesis would have
 * run. Misses (including instantiations the per-instance re-check or
 * the proof rejected, counted into *rejects) fall through to
 * synthesis.
 */
std::optional<BackendRakeResult>
try_rules(const hir::ExprPtr &expr, const hir::ExprPtr &normalized,
          const backend::TargetISA &isa, const RakeOptions &opts,
          int *rejects)
{
    const RuleTable *table = rule_table(opts.rules_file);
    if (!table)
        return std::nullopt;
    const auto *rules = table->rules_for(
        isa.name(), isa.grammar_version(), isa.cost_model_version());
    if (!rules)
        return std::nullopt;
    auto instr = apply_rules(*rules, normalized, isa, opts.seed, rejects);
    if (!instr)
        return std::nullopt;
    BackendRakeResult result;
    result.instr = *instr;
    result.rule_hit = true;
    if (opts.z3_prove) {
        result.proof = z3_check(expr, isa, result.instr,
                                Spec::from_expr(normalized))
                           .result;
        if (result.proof == ProofResult::Refuted) {
            ++*rejects;
            return std::nullopt;
        }
    }
    return result;
}

/**
 * Graceful degradation on timeout: the backend's greedy program,
 * tagged TimedOut + degraded. The greedy selector is pattern
 * matching, not search, so it runs deadline-free — the pipeline
 * always gets a runnable implementation back within a bounded
 * epilogue (backends without one degrade to nothing).
 */
std::optional<BackendRakeResult>
degrade_to_greedy(const hir::ExprPtr &expr,
                  const backend::TargetISA &isa)
{
    auto greedy = isa.greedy_select(expr);
    if (!greedy)
        return std::nullopt;
    BackendRakeResult result;
    result.instr = std::move(*greedy);
    result.status = SynthStatus::TimedOut;
    result.degraded = true;
    return result;
}

} // namespace

std::optional<BackendRakeResult>
select_instructions_for(const hir::ExprPtr &expr, backend::TargetISA &isa,
                        const RakeOptions &raw_opts)
{
    RAKE_USER_CHECK(expr != nullptr, "null expression");
    const RakeOptions opts = with_deadline(raw_opts);

    // Normalize the input the way Halide's lowering would have. Every
    // tier keys on the normalized expression — syntactically
    // different inputs that simplify to the same DAG share one answer
    // — plus the options fingerprint. The deadline and the storage
    // knobs are deliberately not part of it: they decide how an
    // answer is found or kept, never what a completed answer is.
    const hir::ExprPtr normalized = hir::simplify(expr);
    SynthCache &cache = backend_synthesis_cache(isa.name());
    PersistentStore *disk = persistent_store(opts.cache_dir);
    const uint64_t fp = options_fingerprint(opts);

    // Memory tier. use_cache = false skips only this acquire and the
    // publish below: the query opts out of in-process sharing, not of
    // a warm directory the user pointed it at, and its disk and CEGIS
    // counters still land on this backend's stats.
    SynthCache::EntryPtr entry;
    if (opts.use_cache) {
        bool owner = false;
        try {
            entry = cache.acquire(normalized, fp, &owner, opts.deadline);
        } catch (const TimeoutError &) {
            // Budget spent waiting on another thread's in-flight
            // synthesis of the same goal.
            return degrade_to_greedy(expr, isa);
        }
        if (!owner) {
            std::optional<BackendRakeResult> cached = entry->result;
            if (cached)
                cached->cache_hit = true;
            return cached;
        }
    }

    // This thread owns the key: walk the remaining tiers, then
    // publish even when one throws (a failure, so waiters do not
    // block forever; the exception still propagates). A timeout is
    // the exception to the exception: the entry is *retracted*, never
    // published or stored, so an aborted search cannot be mistaken
    // for a deterministic "no solution".
    std::optional<BackendRakeResult> result;
    bool from_disk = false;
    try {
        if (disk) {
            auto loaded = disk->load_backend(normalized, fp, isa);
            if (loaded.invalid)
                cache.note_disk_invalid();
            if (loaded.hit) {
                cache.note_disk_hit();
                from_disk = true;
                result = std::move(loaded.result);
            }
        }
        if (!from_disk) {
            int rule_rejects = 0;
            result = try_rules(expr, normalized, isa, opts, &rule_rejects);
            if (!result) {
                result = synthesize(expr, normalized, isa, opts);
                cache.note_synth_run();
            }
            if (result)
                result->rule_rejects = rule_rejects;
        }
    } catch (const TimeoutError &) {
        if (entry)
            cache.retract(entry);
        return degrade_to_greedy(expr, isa);
    } catch (...) {
        if (entry)
            cache.publish(entry, std::nullopt);
        throw;
    }
    if (entry)
        cache.publish(entry, result);
    if (from_disk) {
        if (result)
            result->disk_hit = true;
    } else if (disk && disk->store_backend(normalized, fp, isa, result)) {
        cache.note_disk_write();
    }
    return result;
}

std::optional<RakeResult>
select_instructions(const hir::ExprPtr &expr, const RakeOptions &opts)
{
    auto isa = backend::make_hvx_backend(opts.target);
    auto selected = select_instructions_for(expr, *isa, opts);
    if (!selected)
        return std::nullopt;
    RakeResult result;
    result.instr =
        std::static_pointer_cast<const hvx::Instr>(selected->instr);
    static_cast<RakeOutcome &>(result) = std::move(*selected);
    return result;
}

} // namespace rake::synth
