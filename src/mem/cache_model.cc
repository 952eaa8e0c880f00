#include "mem/cache_model.h"

#include <algorithm>

#include "common/check.h"
#include "common/types.h"

namespace cpt::mem {

CacheTouchModel::CacheTouchModel(std::uint32_t line_size) : line_size_(line_size) {
  CPT_CHECK(IsPowerOfTwo(line_size));
  line_shift_ = Log2(line_size);
  walk_lines_.reserve(32);
  // Pre-size the per-walk histogram past any realistic lines-per-walk value
  // (the paper's tables top out under 20) so EndWalk never allocates in
  // steady state — the hot-path allocation guard (common/hotguard.h) runs
  // over full replays in tests.
  per_walk_.Reserve(64);
}

void CacheTouchModel::BeginWalk() {
  CPT_DCHECK(!in_walk_, "BeginWalk inside an open walk would drop its lines");
  walk_lines_.clear();
  in_walk_ = true;
}

void CacheTouchModel::Touch(PhysAddr addr, std::uint64_t size) {
  if (!in_walk_ || size == 0) {
    return;
  }
  // Line-id derivation is a bit-packing boundary. // cpt-lint: allow(raw-address-param)
  const std::uint64_t first = addr.raw() >> line_shift_;
  const std::uint64_t last = (addr.raw() + size - 1) >> line_shift_;
  for (std::uint64_t line = first; line <= last; ++line) {
    // Walks touch a handful of lines, so a linear dedup scan beats a set.
    if (std::find(walk_lines_.begin(), walk_lines_.end(), line) == walk_lines_.end()) {
      walk_lines_.push_back(line);
    }
  }
}

void CacheTouchModel::EndWalk() {
  CPT_DCHECK(in_walk_, "EndWalk without a BeginWalk");
  in_walk_ = false;
  total_lines_ += walk_lines_.size();
  ++total_walks_;
  per_walk_.Add(walk_lines_.size());
  if (tracer_ != nullptr) {
    tracer_->Record({.kind = obs::EventKind::kWalkEnd,
                     .lines = static_cast<std::uint32_t>(walk_lines_.size())});
  }
}

void CacheTouchModel::Reset() {
  walk_lines_.clear();
  in_walk_ = false;
  total_lines_ = 0;
  total_walks_ = 0;
  per_walk_ = Histogram();
}

}  // namespace cpt::mem
