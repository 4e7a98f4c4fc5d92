/**
 * @file
 * Retargeting demo (paper §6): lift a kernel once with the shared
 * Uber-Instruction IR, then lower it to BOTH backends through the same
 * sketch/swizzle search — HVX and ARM Neon differ only in their
 * instruction repertoires — and cross-check all three levels.
 */
#include <iostream>

#include "backend/neon_backend.h"
#include "hir/builder.h"
#include "hir/printer.h"
#include "hvx/printer.h"
#include "neon/interp.h"
#include "pipeline/executor.h"
#include "synth/rake.h"
#include "uir/printer.h"

int
main()
{
    using namespace rake;
    using namespace rake::hir;

    // A rounding 3-tap blur with saturating requantization.
    const int lanes = 128;
    HExpr e = cast(
        ScalarType::UInt8,
        clamp((cast(ScalarType::UInt16,
                    load(0, ScalarType::UInt8, lanes, -1)) +
               cast(ScalarType::UInt16,
                    load(0, ScalarType::UInt8, lanes, 0)) *
                   2 +
               cast(ScalarType::UInt16,
                    load(0, ScalarType::UInt8, lanes, 1)) +
               2) >>
                  2,
              0, 255));
    std::cout << "Kernel:\n  " << to_string(e.ptr()) << "\n\n";

    auto hvx_r = synth::select_instructions(e.ptr());
    const auto neon_isa = backend::make_neon_backend(neon::Target{});
    auto neon_r = synth::select_instructions_for(e.ptr(), *neon_isa);
    if (!hvx_r || !neon_r) {
        std::cerr << "selection failed\n";
        return 1;
    }
    const auto neon_code =
        std::static_pointer_cast<const neon::NInstr>(neon_r->instr);

    std::cout << "Shared Uber-Instruction IR (lifted once):\n  "
              << uir::to_string(hvx_r->lifted) << "\n\n";
    std::cout << "HVX lowering (full sketch + swizzle search):\n"
              << hvx::to_listing(hvx_r->instr) << "\n";
    std::cout << "Neon lowering (same search, Neon's repertoire):\n"
              << neon::to_listing(neon_code) << "\n";

    // Execute both over the same image.
    using pipeline::Image;
    std::map<int, Image> inputs;
    inputs.emplace(0,
                   Image::synthetic(ScalarType::UInt8, 256, 16, 99));
    Image ref = pipeline::run_tiles_reference(e.ptr(), inputs);
    Image via_hvx = pipeline::run_tiles(hvx_r->instr, inputs);
    // The Neon path evaluates per tile through its own interpreter.
    Image via_neon(ScalarType::UInt8, 256, 16);
    {
        Env env;
        Buffer buf(ScalarType::UInt8, 256, 16, 0, 0);
        buf.data = inputs.at(0).pixels;
        env.buffers.emplace(0, std::move(buf));
        for (int y = 0; y < 16; ++y) {
            for (int x = 0; x < 256; x += lanes) {
                env.x = x;
                env.y = y;
                Value v = neon::evaluate(neon_code, env);
                for (int i = 0; i < lanes; ++i)
                    via_neon.at(x + i, y) = v[i];
            }
        }
    }
    std::cout << "HVX  vs reference: "
              << pipeline::count_mismatches(via_hvx, ref)
              << " mismatching pixels\n";
    std::cout << "Neon vs reference: "
              << pipeline::count_mismatches(via_neon, ref)
              << " mismatching pixels\n";
    return pipeline::count_mismatches(via_hvx, ref) == 0 &&
                   pipeline::count_mismatches(via_neon, ref) == 0
               ? 0
               : 1;
}
