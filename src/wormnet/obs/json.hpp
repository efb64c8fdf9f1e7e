// Minimal JSON emission helpers shared by every obs exporter (trace sinks,
// metrics registry, SimStats::to_json, checker-stats dumps).
//
// Deliberately a writer, not a parser/DOM: the one JSON reader is
// audit/json.hpp, and a streaming writer keeps the hot trace path
// allocation-free.
// Numbers are formatted deterministically (shortest round-trip form for
// doubles) so golden-file tests stay stable across platforms.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace wormnet::obs {

/// Writes `text` as a JSON string literal (quotes included), escaping per
/// RFC 8259.
void json_quote(std::ostream& os, std::string_view text);

/// Formats a double deterministically: integral values print without a
/// fractional part, everything else uses shortest round-trip notation.
[[nodiscard]] std::string json_double(double value);

/// Tiny state machine for emitting one JSON object/array stream by hand.
/// Tracks comma placement so call sites read linearly:
///
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("cycle"); os << 12;
///   w.key("kind"); w.string("inject");
///   w.end_object();
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits the separator + quoted key + ':'; follow with one typed value or
  /// container call.
  void key(std::string_view name);

  /// Separator for a *raw* array element the caller streams directly to the
  /// ostream.  Typed values and containers separate themselves — do not pair
  /// item() with them.
  void item();

  void string(std::string_view value);
  void boolean(bool value);
  void number(std::uint64_t value);
  void number(std::int64_t value);
  void number(double value);

  // Typed key/value shorthands.
  void field(std::string_view name, std::string_view value);
  void field(std::string_view name, const char* value);
  void field(std::string_view name, bool value);
  void field(std::string_view name, std::uint64_t value);
  void field(std::string_view name, std::uint32_t value);
  void field(std::string_view name, double value);

 private:
  void separate();

  std::ostream& os_;
  /// One entry per open container: true once the first element was written.
  std::vector<bool> wrote_element_;
  /// Set between key() and its value: suppresses the value's separator.
  bool pending_value_ = false;
};

}  // namespace wormnet::obs
