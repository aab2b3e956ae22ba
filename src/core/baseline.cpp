#include "core/baseline.hpp"

namespace origin::core {

const char* to_string(BaselineKind k) {
  switch (k) {
    case BaselineKind::BL1: return "Baseline-1";
    case BaselineKind::BL2: return "Baseline-2";
  }
  return "?";
}

}  // namespace origin::core
