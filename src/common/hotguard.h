// Runtime allocation guard for the steady-state replay loop.
//
// cpt::HotPathScope is the hot-path allocation check (DESIGN.md "Hot-path
// discipline").  While a scope is live on a thread, any heap allocation on
// that thread — operator new, new[], their aligned and nothrow variants —
// is a hard CPT_CHECK-style failure naming the scope's site string.  It
// proves no *executed* allocation happened on a real replay, including
// ones hidden behind virtual calls, std function objects or library
// internals.  tests/hotguard_test.cc replays every supported (PtKind,
// TlbKind) pair under a scope.
//
// Mechanism: linking this translation unit (pulled in automatically by
// any binary that constructs a HotPathScope) replaces the global operator
// new/delete family with malloc/free forwarders that consult a
// thread-local depth counter.  Outside any scope the forwarders are a
// single thread-local load on top of malloc; sanitizers still intercept
// the underlying malloc/free, so ASan/LSan/TSan coverage is unchanged.
//
// The guard compiles to a no-op under NDEBUG or -DCPT_NO_HOTGUARD (this
// repo strips NDEBUG on purpose — see common/check.h — so in practice it
// is always armed).  Scopes nest; the guard trips while any is live.
//
// Usage:
//   cpt::HotPathScope guard("hotguard_test.steady_state_replay");
//   for (...) machine.Access(...);   // aborts loudly if anything allocates
#pragma once

namespace cpt {

class HotPathScope {
 public:
  // `site` must outlive the scope (string literals in practice); it names
  // the guarded region in the failure message.
  explicit HotPathScope(const char* site);
  ~HotPathScope();

  HotPathScope(const HotPathScope&) = delete;
  HotPathScope& operator=(const HotPathScope&) = delete;

  // True when a scope is live on the calling thread (test introspection).
  static bool ActiveOnThisThread();

 private:
  const char* site_;
};

}  // namespace cpt
