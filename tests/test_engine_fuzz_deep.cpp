// Nightly (slow tier) campaign of the three-way differential engine
// fuzzer: >= 520 seeded cases, zero tolerated mismatches. Uses a different
// default master seed than the tier-1 smoke run so the two tiers explore
// disjoint case populations; both honor LPA_FUZZ_SEED / LPA_FUZZ_CASES for
// reproduction and widening. See tests/engine_fuzz.h.

#include "engine_fuzz.h"

namespace lpa {
namespace {

TEST(EngineFuzzDeep, ThreeWayDifferentialCampaign) {
  fuzz::runFuzzCampaign(/*defaultSeed=*/0xDEE95EED2026ULL,
                        /*defaultCases=*/520);
}

}  // namespace
}  // namespace lpa
