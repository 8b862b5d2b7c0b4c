// Tier-1 smoke budget of the three-way differential engine fuzzer: a small
// deterministic campaign cheap enough for the pre-commit loop. The nightly
// slow campaign (test_engine_fuzz_deep.cpp) runs the same harness with a
// >= 520-case budget, and the nightly build-and-test CI steps re-run it
// with LPA_FUZZ_CASES=3000. See tests/engine_fuzz.h for the case
// generator and the cross-checked observables; reproduce any failure with
// LPA_FUZZ_SEED=<printed master seed>.

#include "engine_fuzz.h"

namespace lpa {
namespace {

TEST(EngineFuzz, ThreeWayDifferentialSmoke) {
  fuzz::runFuzzCampaign(/*defaultSeed=*/0x0FF1CE5EEDULL,
                        /*defaultCases=*/40);
}

}  // namespace
}  // namespace lpa
