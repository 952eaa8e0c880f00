// Hash chains (Figures 4 and 7): the one node layer of the hashed (base- or
// block-keyed; block-keyed is the superpage-index table), clustered and
// adaptive clustered tables.
//
// Each of those tables is an open hash table whose bucket array holds
// embedded head nodes, each chaining further nodes of one tag, one next
// pointer and a payload of mapping words.  A clustered node is a hashed node
// whose payload is a block of mappings (Section 3); only the payload, the
// tag and the match differ.  ChainArena<Node> owns what the tables share:
//   - the node arena and its free list, the bucket array and the hash;
//   - the bucket array's simulated placement: one allocation of
//     num_buckets * head_stride bytes.  A chain's first node is charged at
//     its bucket's embedded head slot (Figure 4); every later node, and in
//     the inverted organization the first one too, at its own address;
//   - node allocation and unlink-and-free, with their simulated allocator
//     calls, and the node count, node bytes and live translations;
//   - chain iteration, FindLink, the cycle-guarded audit walk and the
//     chain-length histogram;
//   - the counted chain probe (Probe): head slot, node headers and the
//     walk-event protocol (WalkRecorder) of every chained Lookup, and its
//     uncounted twin (FindCovering) that UpdateAttrFlags searches with.
// The table above it keeps its key and tag derivation, its one match (tag
// test and fill decode) that both searches run, its node payload, which
// word bytes a matching node charges, and the byte size of each node
// format.  Its Table 2 (paper model) size is the sum of its live nodes'
// bytes.
//
// Two things here are simulated state that the figures depend on: a new node
// goes on at the head of its chain, and every node costs exactly one
// SimAllocator::Allocate and one Free, of the bytes its table passes.
//
// `Node` must be default-constructible and copyable, with members
// `std::int32_t next` (kChainEnd-terminated) and `PhysAddr addr`.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "check/audit_visitor.h"
#include "check/fwd.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/stats.h"
#include "common/types.h"
#include "mem/sim_alloc.h"
#include "pt/page_table.h"

namespace cpt::pt {

inline constexpr std::int32_t kChainEnd = -1;

// One node of a counted chain walk and the simulated address its header is
// charged at.
template <typename N>
struct ChainStep {
  N& node;
  PhysAddr addr;
};

// The node FindCovering found and the fill its match decoded for the vpn.
template <typename N>
struct CoveringNode {
  N& node;
  TlbFill fill;
};

template <typename Node>
class ChainArena : public PageTable {
 public:
  std::uint64_t SizeBytesPaperModel() const final { return node_bytes_; }
  // bytes_live includes the bucket array.
  std::uint64_t SizeBytesActual() const final { return alloc_.bytes_live(); }
  std::uint64_t live_translations() const final { return live_translations_; }

  // The bucket a chain key hangs on.
  template <typename Key>
  std::uint32_t BucketOf(Key key) const {
    return hasher_(key);
  }
  std::uint32_t num_buckets() const { return hasher_.num_buckets(); }
  std::uint64_t node_count() const { return live_nodes_; }
  double LoadFactor() const {
    return static_cast<double>(live_nodes_) / static_cast<double>(num_buckets());
  }
  Histogram ChainLengthHistogram() const {
    Histogram h;
    for (const std::int32_t head : buckets_) {
      std::size_t len = 0;
      for (std::int32_t idx = head; idx != kChainEnd; idx = arena_[idx].next) {
        ++len;
      }
      h.Add(len);
    }
    return h;
  }

 protected:
  // `head_stride` is the byte stride of the bucket array's head slots (a
  // power of two, so a slot never straddles a line); `inverted` makes the
  // heads pointers, so no node is charged at a head slot.
  ChainArena(mem::CacheTouchModel& cache, std::uint32_t num_buckets, std::uint64_t head_stride,
             bool inverted = false)
      : PageTable(cache),
        hasher_(num_buckets),
        alloc_(cache.line_size()),
        head_stride_(head_stride),
        inverted_(inverted),
        bucket_base_(alloc_.Allocate(std::uint64_t{num_buckets} * head_stride)),
        buckets_(num_buckets, kChainEnd) {
    CPT_CHECK(IsPowerOfTwo(num_buckets) && IsPowerOfTwo(head_stride));
  }

  // The head slot of bucket `b`: what probing the bucket reads first.
  PhysAddr HeadAddr(std::uint32_t b) const { return bucket_base_ + b * head_stride_; }

  // Chain iteration in chain order.  Nodes(b) yields each node; Walk(b)
  // yields ChainStep{node, charged address} for counted walks.  Neither may
  // outlive an Alloc, which can move the arena.
  template <typename N, bool kSteps>
  class ChainIterator {
   public:
    ChainIterator(N* nodes, std::int32_t idx, PhysAddr head)
        : nodes_(nodes), idx_(idx), head_(head) {}
    decltype(auto) operator*() const {
      if constexpr (kSteps) {
        // Simulated addresses are never 0, so 0 marks "no head slot".
        return ChainStep<N>{nodes_[idx_], head_ != PhysAddr{} ? head_ : nodes_[idx_].addr};
      } else {
        return (nodes_[idx_]);
      }
    }
    ChainIterator& operator++() {
      idx_ = nodes_[idx_].next;
      head_ = PhysAddr{};
      return *this;
    }
    bool operator==(std::default_sentinel_t) const { return idx_ == kChainEnd; }

   private:
    N* nodes_;
    std::int32_t idx_;
    PhysAddr head_;
  };
  template <typename N, bool kSteps>
  struct ChainRange {
    ChainIterator<N, kSteps> first;
    ChainIterator<N, kSteps> begin() const { return first; }
    std::default_sentinel_t end() const { return {}; }
  };

  ChainRange<Node, false> Nodes(std::uint32_t b) {
    return {{arena_.data(), buckets_[b], PhysAddr{}}};
  }
  ChainRange<const Node, false> Nodes(std::uint32_t b) const {
    return {{arena_.data(), buckets_[b], PhysAddr{}}};
  }
  ChainRange<const Node, true> Walk(std::uint32_t b) const {
    return {{arena_.data(), buckets_[b], inverted_ ? PhysAddr{} : HeadAddr(b)}};
  }

  // The counted chain probe of every chained Lookup.  Reads bucket `b`'s
  // head slot, then for each node in chain order charges its tag and next
  // pointer (`header_bytes` at its charged address) and records the step;
  // `match(node, addr)` runs the table's match, charges the word reads a
  // tag match makes and returns the node's fill for `vpn`, or nullopt on a
  // tag mismatch.  Returns the first fill that covers `vpn`: a tag match
  // that does not cover it (an invalid slot or subblock bit, a smaller
  // co-resident superpage) keeps searching, as Section 5 requires.  An
  // inverted table's head slot is a pointer.
  template <typename Match>
  std::optional<TlbFill> Probe(std::uint32_t b, Vpn vpn, std::uint64_t header_bytes,
                               Match match) {
    WalkRecorder rec(cache_, vpn);
    cache_.Touch(HeadAddr(b), inverted_ ? kHeadPointerBytes : header_bytes);
    for (const auto [n, addr] : Walk(b)) {
      cache_.Touch(addr, header_bytes);
      rec.Step();
      if (const std::optional<TlbFill> fill = match(n, addr); fill && fill->Covers(vpn)) {
        return rec.Hit(*fill);
      }
    }
    return std::nullopt;
  }

  // Probe's uncounted twin: the first node of bucket `b`'s chain whose
  // `match(node)` fill covers `vpn`, with that fill, or nullopt.  It charges
  // no line and records no event, so it may run outside a walk.
  template <typename Match>
  std::optional<CoveringNode<Node>> FindCovering(std::uint32_t b, Vpn vpn, Match match) {
    for (Node& n : Nodes(b)) {
      if (const std::optional<TlbFill> fill = match(n); fill && fill->Covers(vpn)) {
        return CoveringNode<Node>{n, *fill};
      }
    }
    return std::nullopt;
  }

  // The link (bucket head or `next` field) that points at the first node of
  // bucket `b`'s chain satisfying `match`, or nullptr.  Callers hash a key
  // once with BucketOf and pass the bucket to both FindLink and Alloc.
  template <typename Match>
  std::int32_t* FindLink(std::uint32_t b, Match match) {
    std::int32_t* link = &buckets_[b];
    while (*link != kChainEnd) {
      Node& n = arena_[*link];
      if (match(static_cast<const Node&>(n))) {
        return link;
      }
      link = &n.next;
    }
    return nullptr;
  }
  template <typename Match>
  Node* Find(std::uint32_t b, Match match) {
    std::int32_t* link = FindLink(b, match);
    return link == nullptr ? nullptr : &arena_[*link];
  }
  template <typename Match>
  const Node* Find(std::uint32_t b, Match match) const {
    for (const Node& n : Nodes(b)) {
      if (match(n)) {
        return &n;
      }
    }
    return nullptr;
  }
  Node& NodeAt(const std::int32_t* link) { return arena_[*link]; }

  // A new node of `bytes` simulated bytes, linked at the head of bucket
  // `b`'s chain and otherwise default-initialized.  Fault path only: a node
  // is created when a key is first inserted.
  Node& Alloc(std::uint32_t b, std::uint64_t bytes) {
    const std::int32_t idx = LinkNewSlot(b);
    Node& n = arena_[idx];
    n.addr = alloc_.Allocate(bytes);
    node_bytes_ += bytes;
    return n;
  }

  // Unlinks the node `link` points at and frees it; `bytes` is what Alloc
  // was given for it.  The caller settles live_translations_ first.
  void UnlinkAndFree(std::int32_t* link, std::uint64_t bytes) {
    const std::int32_t idx = *link;
    Node& n = arena_[idx];
    alloc_.Free(n.addr, bytes);
    node_bytes_ -= bytes;
    *link = n.next;
    n = Node{};
    free_nodes_.push_back(idx);
    --live_nodes_;
  }

  // Reports the table to `visitor`: `table`, the table's rules, completed
  // with the layer's counters, then every chain node, bucket by bucket in
  // chain order.  Every node costs a 16-byte header plus 8 bytes per word,
  // so the header's paper bytes are recounted.  `view_of(node, view)` fills
  // a node's view; the layer adds the bucket it hangs on and the bucket its
  // tag (the chain key) hashes to.  A chain that runs past the live node
  // count or off the arena is reported as a cycle, and that bucket's walk
  // stops.
  template <typename ViewOf>
  void VisitChains(check::PtAuditVisitor& visitor, check::PtTableView table,
                   ViewOf view_of) const {
    table.node_count = live_nodes_;
    table.live_translations = live_translations_;
    table.paper_bytes = node_bytes_;
    visitor.OnTable(table);
    const std::uint64_t step_limit = live_nodes_ + 1;
    for (std::uint32_t b = 0; b < buckets_.size(); ++b) {
      std::uint64_t steps = 0;
      for (std::int32_t idx = buckets_[b]; idx != kChainEnd; idx = arena_[idx].next) {
        if (++steps > step_limit || idx < 0 || static_cast<std::size_t>(idx) >= arena_.size()) {
          visitor.OnChainCycle(b);
          break;
        }
        const Node& n = arena_[idx];
        check::PtNodeView view;
        view.bucket = b;
        view_of(n, view);
        view.home_bucket = BucketOf(view.tag);
        visitor.OnNode(view);
      }
    }
  }

  std::uint64_t live_translations_ = 0;

 private:
  friend class check::TestBackdoor;

  static constexpr std::uint64_t kHeadPointerBytes = 8;

  // Takes a free arena slot and links it at the head of bucket `b`.
  std::int32_t LinkNewSlot(std::uint32_t b) {
    std::int32_t idx;
    if (!free_nodes_.empty()) {
      idx = free_nodes_.back();
      free_nodes_.pop_back();
    } else {
      arena_.push_back(Node{});
      idx = static_cast<std::int32_t>(arena_.size() - 1);
    }
    arena_[idx].next = buckets_[b];
    buckets_[b] = idx;
    ++live_nodes_;
    return idx;
  }

  const BucketHasher hasher_;
  mem::SimAllocator alloc_;
  const std::uint64_t head_stride_;
  const bool inverted_;
  const PhysAddr bucket_base_;
  std::vector<Node> arena_;
  std::vector<std::int32_t> free_nodes_;
  std::vector<std::int32_t> buckets_;
  std::uint64_t live_nodes_ = 0;
  std::uint64_t node_bytes_ = 0;
};

}  // namespace cpt::pt
