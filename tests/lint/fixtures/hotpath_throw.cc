// Fixture: no-throw (per file over src/).
//
// Simulator failures are CPT_CHECK aborts, so exceptions and throwing std
// calls are banned everywhere the rule applies, hot path or not.
#include <optional>
#include <string>
#include <vector>

namespace fxthrow {

struct Index {
  std::vector<int> dense_;

  // BAD: .at() throws on the failure path.
  int Get(int i) {
    return dense_.at(i);
  }

  // GOOD: suppressed with a rationale comment.
  int First() {
    // cpt-lint: allow(no-throw)
    return dense_.at(0);
  }
};

// BAD: a throw statement.
int FxParse(int raw) {
  if (raw < 0) {
    throw raw;
  }
  return raw;
}

// BAD: optional::value() throws bad_optional_access.
int FxUnwrap(const std::optional<int>& v) {
  return v.value();
}

// BAD: std::stoi throws on bad input.
int FxConvert(const std::string& s) {
  return std::stoi(s);
}

// GOOD: checked access that cannot throw.
int FxDeref(const std::optional<int>& v) {
  return v.has_value() ? *v : 0;
}

}  // namespace fxthrow
