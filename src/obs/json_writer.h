// Hand-rolled streaming JSON emitter — the serialization backbone of the
// telemetry layer (bench --json documents, trace JSONL records, Perfetto
// traces).  No external dependencies: the repo's rule is that observability
// must not pull a JSON library into the simulator's build.
//
// The writer is a push-down automaton over object/array nesting: it inserts
// commas and validates key/value alternation, so emitting code cannot
// produce structurally invalid JSON (violations trip CPT_CHECK, consistent
// with the repo's asserts-always-on policy).  Doubles are emitted with
// enough precision to round-trip (%.17g); NaN and infinities — which JSON
// cannot represent — become null.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace cpt::obs {

class JsonWriter {
 public:
  // `pretty` inserts newlines and two-space indentation; compact mode is
  // used for JSONL trace records (one object per line).
  explicit JsonWriter(std::ostream& os, bool pretty = true);
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  // Object member key; must be followed by exactly one value (or container).
  void Key(std::string_view key);

  void String(std::string_view v);
  void Uint(std::uint64_t v);
  void Int(std::int64_t v);
  void Double(double v);
  void Bool(bool v);
  void Null();

  // Key/value conveniences for flat members.
  void KV(std::string_view key, std::string_view v) { Key(key); String(v); }
  void KV(std::string_view key, const char* v) { Key(key); String(v); }
  void KV(std::string_view key, std::uint64_t v) { Key(key); Uint(v); }
  void KV(std::string_view key, std::uint32_t v) { Key(key); Uint(v); }
  void KV(std::string_view key, std::int64_t v) { Key(key); Int(v); }
  void KV(std::string_view key, double v) { Key(key); Double(v); }
  void KV(std::string_view key, bool v) { Key(key); Bool(v); }
  // Strong address types serialize as their raw word (JSON output is a
  // sanctioned .raw() boundary).
  template <class Tag>
  void KV(std::string_view key, TaggedU64<Tag> v) {
    Key(key);
    Uint(v.raw());
  }

  // True once every opened container has been closed again.
  bool Complete() const;

  // JSON string-escape (without the surrounding quotes): ", \, and control
  // characters; multi-byte UTF-8 passes through untouched.
  static std::string Escape(std::string_view s);

 private:
  enum class Ctx : std::uint8_t { kObject, kArray };

  // Comma/indent bookkeeping before a value or key is emitted.
  void BeforeValue();
  void NewlineIndent();

  std::ostream& os_;
  bool pretty_;
  std::vector<Ctx> stack_;
  std::vector<bool> has_members_;  // Parallel to stack_.
  bool expect_value_ = false;      // A Key() was emitted, value pending.
  bool done_ = false;              // One complete top-level value written.
};

}  // namespace cpt::obs
