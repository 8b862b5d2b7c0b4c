#include "stats/adaptive.h"

namespace lpa::stats {

const char* adaptiveStopName(AdaptiveStop stop) {
  switch (stop) {
    case AdaptiveStop::CiTarget:
      return "ci-target";
    case AdaptiveStop::MaxTraces:
      return "max-traces";
  }
  return "unknown";
}

}  // namespace lpa::stats
