// env-var-registry: ANOLE_SCENARIO is a *required* knob — this getenv
// site satisfies the required-registration check (and the fixture README
// documents it), so no required-var finding fires on the fixture tree.
#include <cstdlib>

namespace anole::core {

bool scenario_armed() {
  return std::getenv("ANOLE_SCENARIO") != nullptr;  // ok: documented row
}

}  // namespace anole::core
