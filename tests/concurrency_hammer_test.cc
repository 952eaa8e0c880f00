// Concurrency hammer for the Section 3.1 claim that a TLB miss handler sets
// referenced and modified bits without locking the page table (DESIGN.md
// "Concurrency contracts").  Meant to run under ThreadSanitizer (the `tsan`
// CMake preset; these tests carry the `concurrency` ctest label).
//
// Contract under test:
//   - mapping words are atomic: concurrent Lookup + R/M-bit updates are safe
//     on a table whose structure is not changing;
//   - page tables are single-writer, so every insert happens before the
//     threads start;
//   - the cache-touch model is single-walker: exactly one thread performs
//     counted walks, so every other thread sticks to uncounted operations
//     (UpdateAttrFlags and the PeekAttr and ScanAndClearReferenced built on
//     it, HashedPageTable::Peek).
//
// gtest assertions are not thread-safe, so worker threads record failures
// in atomics and the main thread asserts after joining.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "check/auditor.h"
#include "core/clustered.h"
#include "mem/cache_model.h"
#include "pt/hashed.h"
#include "pt/page_table.h"

namespace cpt {
namespace {

constexpr std::uint16_t kRefMod = Attr::kReferenced | Attr::kModified;

// Deterministic VPN->PPN mapping so every thread can verify translations
// without shared bookkeeping.
Ppn PpnFor(Vpn vpn) { return Ppn{vpn.raw() ^ 0xA5A5u}; }

void JoinAll(std::vector<std::thread>& threads) {
  for (std::thread& t : threads) {
    t.join();
  }
}

// Hashed table: concurrent Lookup, Peek, and R/M updates against a
// structurally frozen table.
TEST(ConcurrencyHammerTest, HashedLookupUpdate) {
  constexpr unsigned kPages = 1024;
  constexpr unsigned kUpdaters = 2;
  constexpr unsigned kPasses = 40;
  const Vpn base{0x7000};

  mem::CacheTouchModel cache(256);
  pt::HashedPageTable table(cache, pt::HashedPageTable::Options{.num_buckets = 512});
  for (unsigned i = 0; i < kPages; ++i) {
    table.InsertBase(base + i, PpnFor(base + i), Attr::ReadWrite());
  }

  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // counted walker
    for (unsigned pass = 0; pass < kPasses; ++pass) {
      for (unsigned i = 0; i < kPages; ++i) {
        const Vpn vpn = base + i;
        const auto fill = table.Lookup(VaOf(vpn));
        if (!fill.has_value() || fill->word.ppn() != PpnFor(vpn)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  threads.emplace_back([&] {  // uncounted reader
    for (unsigned pass = 0; pass < kPasses; ++pass) {
      for (unsigned i = 0; i < kPages; ++i) {
        const Vpn vpn = base + i;
        const auto word = table.Peek(vpn.raw());
        if (!word.has_value() || !word->valid()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  for (unsigned u = 0; u < kUpdaters; ++u) {
    threads.emplace_back([&] {
      for (unsigned pass = 0; pass < kPasses; ++pass) {
        for (unsigned i = 0; i < kPages; ++i) {
          if (!table.UpdateAttrFlags(base + i, kRefMod, 0)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  JoinAll(threads);

  EXPECT_EQ(failures.load(), 0u);
  for (unsigned i = 0; i < kPages; ++i) {
    const auto attr = table.PeekAttr(base + i);
    ASSERT_TRUE(attr.has_value());
    EXPECT_TRUE(attr->test(Attr::kReferenced));
    EXPECT_TRUE(attr->test(Attr::kModified));
    EXPECT_TRUE(attr->test(Attr::kWrite)) << "protection bits must survive the hammer";
  }
  const check::AuditReport report = check::StructuralAuditor::Audit(table);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Clustered table: concurrent Lookup, PeekAttr, R/M updates over base pages
// and a superpage word (whose single PTE all covered pages share), and a
// clock sweep test-and-clearing R over the base pages as they are set.
TEST(ConcurrencyHammerTest, ClusteredLookupUpdate) {
  constexpr unsigned kPages = 512;
  constexpr unsigned kUpdaters = 2;
  constexpr unsigned kPasses = 40;
  const Vpn base{0x2000};
  const Vpn super_base{0x40000};  // 64KB-aligned.

  mem::CacheTouchModel cache(256);
  core::ClusteredPageTable table(cache, core::ClusteredPageTable::Options{.num_buckets = 512});
  for (unsigned i = 0; i < kPages; ++i) {
    table.InsertBase(base + i, PpnFor(base + i), Attr::ReadWrite());
  }
  table.InsertSuperpage(super_base, kPage64K, Ppn{0x5000}, Attr::ReadWrite());
  const unsigned super_pages = kPage64K.pages();

  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // counted walker
    for (unsigned pass = 0; pass < kPasses; ++pass) {
      for (unsigned i = 0; i < kPages; ++i) {
        if (!table.Lookup(VaOf(base + i)).has_value()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      for (unsigned i = 0; i < super_pages; ++i) {
        if (!table.Lookup(VaOf(super_base + i)).has_value()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  threads.emplace_back([&] {  // uncounted reader
    for (unsigned pass = 0; pass < kPasses; ++pass) {
      for (unsigned i = 0; i < kPages; ++i) {
        const auto attr = table.PeekAttr(base + i);
        if (!attr.has_value() || !attr->test(Attr::kWrite)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  // Every update and sweep step is a test-and-set or test-and-clear, so
  // each R transition is seen by exactly one thread: the updaters' 0->1
  // transitions must equal the sweeps' 1->0 transitions plus the R bits
  // left at the end.  A clear that is not one atomic step loses a set that
  // lands inside it and breaks the balance.
  std::atomic<std::uint64_t> r_sets{0};
  std::atomic<std::uint64_t> r_clears{0};
  threads.emplace_back([&] {  // clock sweep
    for (unsigned pass = 0; pass < kPasses; ++pass) {
      r_clears.fetch_add(table.ScanAndClearReferenced(base, kPages), std::memory_order_relaxed);
    }
  });
  for (unsigned u = 0; u < kUpdaters; ++u) {
    threads.emplace_back([&, u] {
      for (unsigned pass = 0; pass < kPasses; ++pass) {
        // M is set once, on the first pass, so an M lost to a sweep's
        // concurrent clear of R would stay lost.
        const std::uint16_t set = pass == 0 ? kRefMod : Attr::kReferenced;
        for (unsigned i = 0; i < kPages; ++i) {
          const auto was = table.UpdateAttrFlags(base + i, set, 0);
          if (!was) {
            failures.fetch_add(1, std::memory_order_relaxed);
          } else if (!was->test(Attr::kReferenced)) {
            r_sets.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Both updaters hit the same superpage word through different
        // covered pages: one PTE, concurrently fetch_or'd.
        if (!table.UpdateAttrFlags(super_base + u, Attr::kReferenced, 0)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  JoinAll(threads);

  EXPECT_EQ(failures.load(), 0u);
  for (unsigned i = 0; i < kPages; ++i) {
    const auto attr = table.PeekAttr(base + i);
    ASSERT_TRUE(attr.has_value());
    EXPECT_TRUE(attr->test(Attr::kModified)) << "the sweep's clear of R must not lose M";
    EXPECT_TRUE(attr->test(Attr::kRead) && attr->test(Attr::kWrite))
        << "protection bits must survive the hammer";
  }
  // A last sweep clears whatever R the updaters left; the next finds none.
  EXPECT_EQ(r_sets.load(), r_clears.load() + table.ScanAndClearReferenced(base, kPages))
      << "an R transition was lost";
  EXPECT_EQ(table.ScanAndClearReferenced(base, kPages), 0u);
  // The superpage's one PTE is referenced and counts exactly once.
  EXPECT_TRUE(table.PeekAttr(super_base + super_pages - 1)->test(Attr::kReferenced));
  EXPECT_EQ(table.ScanAndClearReferenced(super_base, super_pages), 1u);

  const check::AuditReport report = check::StructuralAuditor::Audit(table);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

}  // namespace
}  // namespace cpt
