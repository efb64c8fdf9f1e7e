// json_quote escaping: control characters, the standard short escapes, and
// the UTF-8 contract — well-formed multi-byte sequences pass through raw,
// malformed bytes become U+FFFD escapes, so the output is always both valid
// JSON and valid UTF-8.  Round-trips go through the library's one JSON
// reader (wormnet/audit/json.hpp).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "test_helpers.hpp"
#include "wormnet/obs/json.hpp"

namespace wormnet::obs {
namespace {

std::string quote(std::string_view text) {
  std::ostringstream os;
  json_quote(os, text);
  return os.str();
}

/// Encode with json_quote, decode with the reader: the fixed point for
/// every string the writers can be handed.
std::string round_trip(std::string_view text) {
  return audit::json::parse(quote(text)).as_string();
}

TEST(ObsJson, PlainAsciiPassesThrough) {
  EXPECT_EQ(quote("mesh:4x4:2"), "\"mesh:4x4:2\"");
  EXPECT_EQ(round_trip("n0->n1.v0"), "n0->n1.v0");
}

TEST(ObsJson, StandardEscapes) {
  EXPECT_EQ(quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(quote("a\nb\tc\rd\be\ff"), "\"a\\nb\\tc\\rd\\be\\ff\"");
  EXPECT_EQ(round_trip("a\"b\\c\nd\te\rf\bg\fh"), "a\"b\\c\nd\te\rf\bg\fh");
}

TEST(ObsJson, ControlCharactersBecomeUnicodeEscapes) {
  EXPECT_EQ(quote(std::string(1, '\x01')), "\"\\u0001\"");
  EXPECT_EQ(quote(std::string(1, '\x1f')), "\"\\u001f\"");
  const std::string nul(1, '\0');
  EXPECT_EQ(quote(nul), "\"\\u0000\"");
  // Built by concatenation: a "\x07b" literal would parse as hex 0x7b ('{').
  const std::string bell = std::string("a") + '\x07' + "b";
  EXPECT_EQ(round_trip(bell), bell);
}

TEST(ObsJson, ValidUtf8PassesThroughRaw) {
  const std::string two_byte = "caf\xc3\xa9";            // café (U+00E9)
  const std::string three_byte = "\xe2\x86\x92";         // → (U+2192)
  const std::string four_byte = "\xf0\x9f\x90\x9b";      // 🐛 (U+1F41B)
  EXPECT_EQ(quote(two_byte), "\"" + two_byte + "\"");
  EXPECT_EQ(quote(three_byte), "\"" + three_byte + "\"");
  EXPECT_EQ(quote(four_byte), "\"" + four_byte + "\"");
  EXPECT_EQ(round_trip(two_byte + three_byte + four_byte),
            two_byte + three_byte + four_byte);
}

TEST(ObsJson, UnicodeEscapeDecodingInReader) {
  // The reader side of the round trip: \uXXXX and surrogate pairs decode to
  // UTF-8, so writer output using escapes compares equal to raw strings.
  EXPECT_EQ(audit::json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(audit::json::parse("\"\\u2192\"").as_string(), "\xe2\x86\x92");
  // U+1F41B via surrogates
  EXPECT_EQ(audit::json::parse("\"\\ud83d\\udc1b\"").as_string(),
            "\xf0\x9f\x90\x9b");
}

TEST(ObsJson, InvalidBytesBecomeReplacementCharacter) {
  // A lone continuation byte, a truncated lead, an overlong encoding, and a
  // surrogate encoding are each one invalid unit -> one \ufffd.
  EXPECT_EQ(quote("\x80"), "\"\\ufffd\"");
  EXPECT_EQ(quote("a\xc3"), "\"a\\ufffd\"");          // truncated 2-byte
  EXPECT_EQ(quote("\xc0\xaf"), "\"\\ufffd\\ufffd\"");  // overlong '/'
  EXPECT_EQ(quote("\xed\xa0\x80"),                     // U+D800 surrogate
            "\"\\ufffd\\ufffd\\ufffd\"");
  // Invalid bytes resync: the valid suffix still passes through.
  EXPECT_EQ(quote("\xff ok"), "\"\\ufffd ok\"");
}

TEST(ObsJson, MixedValidAndInvalid) {
  const std::string input = "x\xc3\xa9\x80y";  // é then a stray continuation
  EXPECT_EQ(quote(input), "\"x\xc3\xa9\\ufffdy\"");
  // Round trip yields the replacement character where the bad byte was.
  EXPECT_EQ(round_trip(input), "x\xc3\xa9\xef\xbf\xbdy");
}

TEST(ObsJson, WriterFieldsRoundTrip) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    w.field("name", "ring\n\"8\" caf\xc3\xa9");
    w.field("bad", "\x80");
    w.end_object();
  }
  const audit::json::Value root = audit::json::parse(os.str());
  EXPECT_EQ(root.at("name").as_string(), "ring\n\"8\" caf\xc3\xa9");
  EXPECT_EQ(root.at("bad").as_string(), "\xef\xbf\xbd");
}

}  // namespace
}  // namespace wormnet::obs
