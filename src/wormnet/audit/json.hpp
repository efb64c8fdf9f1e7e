// The one JSON reader (DESIGN 3.10).
//
// Every JSON input the project reads goes through this header: certificates
// (`parse_certificate`, through the pull interface), postmortem artifacts
// (`wormnet-explain`, through the DOM) and every test that checks a
// renderer.  It lives in audit/ because the auditor is the caller whose
// reading must be trusted, and it is header-only and standard-library-only
// so that `wormnet-explain` can use it without linking the library.
//
// The rules are the same for every caller, with no lenient mode:
//   * whitespace is space, tab, line feed and carriage return only;
//   * a string holds no unescaped control byte and no unknown escape;
//     `\u` decodes to UTF-8, surrogate pairs included, and a lone
//     surrogate is an error;
//   * numbers follow the JSON grammar: no nan/inf, hex, leading '+' or
//     leading zeros, and a value a double cannot hold is an error;
//   * the literals true, false and null match in full;
//   * an object with a duplicate key is an error;
//   * nesting deeper than kMaxDepth levels is an error, and so are any
//     bytes after the document.
// The first error wins; it names the problem and its byte offset.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace wormnet::audit::json {

/// A malformed document, or a DOM value read as the wrong kind.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

/// One node of a parsed document.  Objects keep their members in document
/// order.  The typed accessors throw Error when the value is another kind.
class Value {
 public:
  [[nodiscard]] Kind kind() const { return kind_; }

  /// The member named `key`, or nullptr when this is not an object or has
  /// no such member.
  [[nodiscard]] const Value* find(std::string_view key) const {
    if (kind_ != Kind::kObject) return nullptr;
    const auto it = std::find(keys_.begin(), keys_.end(), key);
    return it == keys_.end()
               ? nullptr
               : &items_[static_cast<std::size_t>(it - keys_.begin())];
  }
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }
  /// The member named `key`; throws Error when it is absent.
  [[nodiscard]] const Value& at(std::string_view key) const {
    const Value* member = find(key);
    if (member == nullptr) {
      throw Error("no member \"" + std::string(key) + "\"");
    }
    return *member;
  }
  /// An object's member names, in document order.
  [[nodiscard]] const std::vector<std::string>& keys() const {
    expect(Kind::kObject, "an object");
    return keys_;
  }

  [[nodiscard]] bool as_bool() const {
    expect(Kind::kBool, "a boolean");
    return bool_;
  }
  [[nodiscard]] double as_number() const {
    expect(Kind::kNumber, "a number");
    return number_;
  }
  [[nodiscard]] const std::string& as_string() const {
    expect(Kind::kString, "a string");
    return string_;
  }
  [[nodiscard]] const std::vector<Value>& as_array() const {
    expect(Kind::kArray, "an array");
    return items_;
  }

 private:
  friend class Reader;

  void expect(Kind kind, const char* what) const {
    if (kind_ != kind) throw Error(std::string("expected ") + what);
  }

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;       ///< array elements, or member values
  std::vector<std::string> keys_;  ///< member names, parallel to items_
};

/// Pull reader over a borrowed buffer.  Each call consumes one value (or,
/// for object() and array(), one container whose parts the callback
/// consumes); after the first error every call is a no-op.
class Reader {
 public:
  /// Deeper input is refused instead of recursed into.
  static constexpr int kMaxDepth = 64;

  explicit Reader(std::string_view text) : text_(text) {}
  // The reader only borrows its input; a temporary would dangle.
  explicit Reader(std::string&&) = delete;

  [[nodiscard]] bool failed() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Records `what` at the current byte offset unless an error came first.
  void fail(std::string_view what) {
    if (failed()) return;
    error_.assign(what);
    error_ += " (at byte " + std::to_string(pos_) + ")";
  }

  /// The next byte after whitespace, or '\0' at the end of the input and
  /// after an error.
  [[nodiscard]] char peek() {
    if (failed()) return '\0';
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  /// Requires the end of the input after the document.
  void end() {
    if (peek() != '\0' || pos_ < text_.size()) {
      fail("trailing bytes after the document");
    }
  }

  std::string string() {
    std::string out;
    if (!consume('"', "expected a string")) return out;
    for (;;) {
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (pos_ == text_.size()) {
        fail("unterminated string");
        return out;
      }
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c != '\\') {
        fail("unescaped control byte in string");
        return out;
      }
      ++pos_;
      if (!escape(out)) return out;
    }
  }

  /// An integer in [0, max], written without sign, fraction or exponent.
  std::uint64_t unsigned_int(std::uint64_t max) {
    const char first = peek();
    if (!is_digit(first)) {
      fail("expected a non-negative integer");
      return 0;
    }
    if (first == '0' && is_digit(at(pos_ + 1))) {
      fail("leading zero in number");
      return 0;
    }
    std::uint64_t value = 0;
    while (is_digit(at(pos_))) {
      const auto digit = static_cast<std::uint64_t>(text_[pos_] - '0');
      if (digit > max || value > (max - digit) / 10) {
        fail("integer out of range");
        return 0;
      }
      value = value * 10 + digit;
      ++pos_;
    }
    const char next = at(pos_);
    if (next == '.' || next == 'e' || next == 'E') {
      fail("expected a non-negative integer");
      return 0;
    }
    return value;
  }

  double number() {
    if (peek() == '\0') return fail_number("expected a number");
    const std::size_t start = pos_;
    if (at(pos_) == '-') ++pos_;
    if (at(pos_) == '0') {
      ++pos_;
      if (is_digit(at(pos_))) return fail_number("leading zero in number");
    } else if (!digits()) {
      return fail_number("expected a number");
    }
    if (at(pos_) == '.') {
      ++pos_;
      if (!digits()) return fail_number("expected a digit after '.'");
    }
    if (at(pos_) == 'e' || at(pos_) == 'E') {
      ++pos_;
      if (at(pos_) == '+' || at(pos_) == '-') ++pos_;
      if (!digits()) return fail_number("expected a digit in the exponent");
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || end != text_.data() + pos_) {
      pos_ = start;
      return fail_number("number out of range");
    }
    return value;
  }

  bool boolean() {
    if (literal("true")) return true;
    if (!literal("false")) fail("expected true or false");
    return false;
  }

  /// Reads `{ "k": v, ... }`.  `member(key)` must consume exactly one value
  /// and returns false to refuse the key as unknown.  Duplicate detection
  /// is linear in the object's member count per key.
  template <typename Fn>
  void object(const Fn& member) {
    if (!open('{')) return;
    const std::size_t base = keys_.size();
    if (peek() == '}') {
      ++pos_;
    } else {
      for (;;) {
        if (peek() != '"') {
          fail("expected a key");
          break;
        }
        std::string key = string();
        if (failed()) break;
        if (std::find(keys_.begin() + static_cast<std::ptrdiff_t>(base),
                      keys_.end(), key) != keys_.end()) {
          fail("duplicate key \"" + key + "\"");
          break;
        }
        if (!consume(':', "expected ':'")) break;
        if (!member(key)) fail("unknown key \"" + key + "\"");
        if (failed()) break;
        keys_.push_back(std::move(key));
        if (!more('}')) break;
      }
    }
    keys_.resize(base);
    --depth_;
  }

  /// Reads `[ e, ... ]`; `element()` must consume exactly one value.
  template <typename Fn>
  void array(const Fn& element) {
    if (!open('[')) return;
    if (peek() == ']') {
      ++pos_;
    } else {
      for (;;) {
        element();
        if (failed() || !more(']')) break;
      }
    }
    --depth_;
  }

  /// Reads any value into a DOM node.
  Value value() {
    Value out;
    const char c = peek();
    switch (c) {
      case '{':
        out.kind_ = Kind::kObject;
        object([&](const std::string& key) {
          out.keys_.push_back(key);
          out.items_.push_back(value());
          return true;
        });
        break;
      case '[':
        out.kind_ = Kind::kArray;
        array([&] { out.items_.push_back(value()); });
        break;
      case '"':
        out.kind_ = Kind::kString;
        out.string_ = string();
        break;
      case 't':
      case 'f':
        out.kind_ = Kind::kBool;
        out.bool_ = boolean();
        break;
      case 'n':
        if (!literal("null")) fail("expected null");
        break;
      default:
        if (c != '-' && !is_digit(c)) {
          fail("expected a value");
          break;
        }
        out.kind_ = Kind::kNumber;
        out.number_ = number();
        break;
    }
    return out;
  }

 private:
  static bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  /// The byte at `i`, or '\0' past the end.
  [[nodiscard]] char at(std::size_t i) const {
    return i < text_.size() ? text_[i] : '\0';
  }

  bool consume(char c, const char* what) {
    if (peek() != c || pos_ == text_.size()) {
      fail(what);
      return false;
    }
    ++pos_;
    return true;
  }

  /// After a container element: true on ',', false on `close` or an error.
  bool more(char close) {
    if (peek() == ',') {
      ++pos_;
      return true;
    }
    consume(close, close == '}' ? "expected ',' or '}'" : "expected ',' or ']'");
    return false;
  }

  bool open(char c) {
    if (!consume(c, c == '{' ? "expected an object" : "expected an array")) {
      return false;
    }
    if (depth_ == kMaxDepth) {
      --pos_;
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      return false;
    }
    ++depth_;
    return true;
  }

  bool literal(std::string_view word) {
    if (peek() != word[0] || text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  /// One or more digits.
  bool digits() {
    const std::size_t start = pos_;
    while (is_digit(at(pos_))) ++pos_;
    return pos_ != start;
  }

  double fail_number(std::string_view what) {
    fail(what);
    return 0.0;
  }

  unsigned hex4() {
    unsigned code = 0;
    const char* first = text_.data() + pos_;
    const char* last = first + std::min<std::size_t>(4, text_.size() - pos_);
    const auto [end, ec] = std::from_chars(first, last, code, 16);
    if (ec != std::errc() || end != first + 4) {
      fail("malformed \\u escape");
      return 0;
    }
    pos_ += 4;
    return code;
  }

  /// Decodes the escape after a backslash into `out`.
  bool escape(std::string& out) {
    static constexpr std::string_view kName = "\"\\/bfnrt";
    static constexpr std::string_view kByte = "\"\\/\b\f\n\r\t";
    const char e = at(pos_);
    if (const std::size_t i = kName.find(e); i != std::string_view::npos) {
      out += kByte[i];
      ++pos_;
      return true;
    }
    if (e != 'u') {
      --pos_;  // report the backslash
      fail("unknown escape in string");
      return false;
    }
    ++pos_;
    unsigned code = hex4();
    if (code >= 0xd800 && code < 0xdc00 && at(pos_) == '\\' &&
        at(pos_ + 1) == 'u') {
      pos_ += 2;
      const unsigned low = hex4();
      if (low >= 0xdc00 && low < 0xe000) {
        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
      }
    }
    if (code >= 0xd800 && code < 0xe000) fail("lone surrogate in \\u escape");
    if (failed()) return false;
    append_utf8(out, code);
    return true;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
  /// Keys of every open object, innermost last (duplicate detection).
  std::vector<std::string> keys_;
};

/// Parses one whole document into a DOM; throws Error on malformed input.
inline Value parse(std::string_view text) {
  Reader reader(text);
  Value root = reader.value();
  reader.end();
  if (reader.failed()) throw Error(reader.error());
  return root;
}

}  // namespace wormnet::audit::json
