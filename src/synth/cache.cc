#include "synth/cache.h"

namespace rake::synth {

uint64_t
options_fingerprint(const RakeOptions &opts)
{
    uint64_t h = 0xcbf29ce484222325ull;
    h = detail::cache_mix(h, static_cast<uint64_t>(opts.target.vector_bytes));
    h = detail::cache_mix(h, opts.lower.backtracking ? 1 : 0);
    h = detail::cache_mix(h, opts.lower.layouts ? 1 : 0);
    h = detail::cache_mix(h, opts.lower.lane0_pruning ? 1 : 0);
    h = detail::cache_mix(h, static_cast<uint64_t>(opts.lower.swizzle_budget));
    h = detail::cache_mix(h, static_cast<uint64_t>(opts.verifier.base_examples));
    h = detail::cache_mix(h, static_cast<uint64_t>(opts.verifier.trials));
    h = detail::cache_mix(h, opts.verifier.dedup ? 1 : 0);
    h = detail::cache_mix(h, opts.z3_prove ? 1 : 0);
    h = detail::cache_mix(h, opts.seed);
    return h;
}

SynthCache &
backend_synthesis_cache(const std::string &backend)
{
    static std::mutex registry_mutex;
    static std::unordered_map<std::string, std::unique_ptr<SynthCache>>
        registry;
    std::unique_lock<std::mutex> lock(registry_mutex);
    std::unique_ptr<SynthCache> &slot = registry[backend];
    if (!slot)
        slot = std::make_unique<SynthCache>();
    return *slot;
}

SynthCache &
synthesis_cache()
{
    return backend_synthesis_cache("hvx");
}

} // namespace rake::synth
