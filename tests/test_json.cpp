// The one JSON reader (wormnet/audit/json.hpp): each of its rules, the pull
// interface's integer reads, and a seeded fuzz of the committed certificate
// and postmortem goldens through both entry points.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "test_helpers.hpp"

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

namespace wormnet::audit {
namespace {

/// The reader's error for `text`, or "" when it parses.
std::string error_of(std::string_view text) {
  try {
    (void)json::parse(text);
  } catch (const json::Error& e) {
    return e.what();
  }
  return "";
}

void expect_rejected(std::string_view text, std::string_view problem) {
  const std::string error = error_of(text);
  EXPECT_NE(error.find(problem), std::string::npos)
      << "input: " << text << "\nerror: " << error;
}

TEST(JsonReader, WhitespaceIsTheFourJsonBytesOnly) {
  EXPECT_EQ(error_of(" \t\r\n{ \"a\" :\t[ 1 ,\n2 ] }\r\n"), "");
  expect_rejected("{\v}", "expected a key (at byte 1)");
  expect_rejected("\f1", "expected a value (at byte 0)");
  expect_rejected("[1,\xc2\xa0 2]", "expected a value (at byte 3)");
}

TEST(JsonReader, StringsRefuseControlBytesAndUnknownEscapes) {
  EXPECT_EQ(json::parse(R"("a\"\\\/\b\f\n\r\t")").as_string(),
            "a\"\\/\b\f\n\r\t");
  expect_rejected("\"tab\there\"", "unescaped control byte in string");
  expect_rejected(R"("wait\qcycle")", "unknown escape in string (at byte 5)");
  expect_rejected(R"("\x41")", "unknown escape in string");
  expect_rejected(R"("\u12G4")", "malformed \\u escape");
  expect_rejected("\"open", "unterminated string");
}

TEST(JsonReader, UnicodeEscapesDecodeToUtf8AndRefuseLoneSurrogates) {
  EXPECT_EQ(json::parse(R"("\u0041\u00e9\u2192")").as_string(),
            "A\xc3\xa9\xe2\x86\x92");
  EXPECT_EQ(json::parse(R"("\ud83d\udc1b")").as_string(),
            "\xf0\x9f\x90\x9b");
  expect_rejected(R"("\ud83d")", "lone surrogate");
  expect_rejected(R"("\ud83dA")", "lone surrogate");
  expect_rejected(R"("\ud83d\u0041")", "lone surrogate");
  expect_rejected(R"("\udc1b")", "lone surrogate");
}

TEST(JsonReader, NumbersFollowTheJsonGrammar) {
  EXPECT_EQ(json::parse("-0").as_number(), 0.0);
  EXPECT_EQ(json::parse("12.5e-1").as_number(), 1.25);
  EXPECT_EQ(json::parse("1E+2").as_number(), 100.0);
  EXPECT_EQ(json::parse("1e300").as_number(), 1e300);
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "Infinity", "0x10",
                          "+1", ".5", "-", "--1"}) {
    EXPECT_NE(error_of(bad), "") << bad;
  }
  expect_rejected("01", "leading zero in number");
  expect_rejected("-007", "leading zero in number");
  expect_rejected("1.", "expected a digit after '.'");
  expect_rejected("1e", "expected a digit in the exponent");
  expect_rejected("1e400", "number out of range (at byte 0)");
}

TEST(JsonReader, LiteralsMatchInFull) {
  EXPECT_TRUE(json::parse("true").as_bool());
  EXPECT_FALSE(json::parse("false").as_bool());
  EXPECT_EQ(json::parse("null").kind(), json::Kind::kNull);
  expect_rejected("tru", "expected true or false");
  expect_rejected("nul", "expected null");
  expect_rejected("True", "expected a value");
  expect_rejected("[truex]", "expected ',' or ']'");
  expect_rejected("falsey", "trailing bytes after the document");
}

TEST(JsonReader, AnyObjectWithADuplicateKeyIsRejected) {
  expect_rejected(R"({"a":1,"a":2})", "duplicate key \"a\"");
  expect_rejected(R"({"x":[{"a":1,"b":2,"a":3}]})", "duplicate key \"a\"");
  // Keys compare decoded: an escaped spelling is the same key.
  expect_rejected(R"({"a":1,"\u0061":2})", "duplicate key \"a\"");
  // The same key in sibling and nested objects is not a duplicate.
  EXPECT_EQ(error_of(R"({"a":{"a":1},"b":[{"a":1},{"a":2}]})"), "");
}

TEST(JsonReader, NestingIsCappedAndTrailingBytesRejected) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(error_of(nested(json::Reader::kMaxDepth)), "");
  expect_rejected(nested(json::Reader::kMaxDepth + 1),
                  "nesting deeper than 64 levels (at byte 64)");
  expect_rejected("{} {}", "trailing bytes after the document (at byte 3)");
  expect_rejected(std::string("{}\0", 3), "trailing bytes after the document");
  expect_rejected("", "expected a value (at byte 0)");
}

TEST(JsonReader, DomKeepsMembersInOrderAndChecksKinds) {
  const json::Value doc = json::parse(R"({"b":[1,"x"],"a":{"k":null}})");
  EXPECT_EQ(doc.keys(), (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(doc.at("b").as_array().size(), 2u);
  EXPECT_EQ(doc.at("b").as_array()[1].as_string(), "x");
  EXPECT_TRUE(doc.at("a").has("k"));
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), json::Error);
  EXPECT_THROW((void)doc.at("b").as_number(), json::Error);
  EXPECT_THROW((void)doc.at("a").as_array(), json::Error);
}

TEST(JsonReader, PullIntegersAreBoundedAndUnsigned) {
  const auto read = [](std::string_view text, std::uint64_t max) {
    json::Reader r(text);
    const std::uint64_t value = r.unsigned_int(max);
    r.end();
    return r.failed() ? r.error() : std::to_string(value);
  };
  EXPECT_EQ(read("0", 9), "0");
  EXPECT_EQ(read(" 4294967295 ", 0xffffffffu), "4294967295");
  EXPECT_EQ(read("18446744073709551615", ~std::uint64_t{0}),
            "18446744073709551615");
  EXPECT_EQ(read("4294967296", 0xffffffffu),
            "integer out of range (at byte 9)");
  EXPECT_EQ(read("18446744073709551616", ~std::uint64_t{0}),
            "integer out of range (at byte 19)");
  EXPECT_EQ(read("-1", 9), "expected a non-negative integer (at byte 0)");
  EXPECT_EQ(read("1.0", 9), "expected a non-negative integer (at byte 1)");
  EXPECT_EQ(read("1e3", 9999), "expected a non-negative integer (at byte 1)");
  EXPECT_EQ(read("007", 9), "leading zero in number (at byte 0)");
}

// ------------------------------------------------------------------- fuzz

std::string read_golden(const std::string& name) {
  std::ifstream file(std::string(WORMNET_GOLDEN_DIR) + "/" + name,
                     std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// The committed JSON goldens: nine certificates and one postmortem.
const char* const kGoldens[] = {
    "certificate_certified.json", "certificate_refuted.json",
    "reconfig_certified_cert.json", "reconfig_refuted_cert.json",
    "staged_plan_cert_0.json",    "staged_plan_cert_1.json",
    "staged_plan_cert_2.json",    "staged_plan_cert_3.json",
    "staged_plan_cert_4.json",    "postmortem_ring8.json",
};

class FuzzJsonReader : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzJsonReader, RejectsOrReachesAFixedPoint) {
  util::Xoshiro256 rng(GetParam() * 0x9e3779b97f4a7c15ULL + 23);
  const std::string name = kGoldens[rng.below(std::size(kGoldens))];
  std::string text = read_golden(name);
  ASSERT_FALSE(text.empty()) << name;
  const char kNoise[] = {'{', '}', '[', ']', ':', ',', '"', '\\', 'u', ' ',
                         '-', '+', '.', '0', '1', '9', 'e', 't', 'n', 'a',
                         '\t', '\n', '\v', '\0', '\x01', '\x7f', '\x80',
                         '\xff'};
  // A few byte edits: insert, delete, replace, swap, truncate, or copy a
  // span elsewhere (which repeats keys and values).
  const std::size_t edits = 1 + rng.below(4);
  for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng.below(text.size());
    const char noise = kNoise[rng.below(std::size(kNoise))];
    switch (rng.below(6)) {
      case 0:
        text.insert(at, 1, noise);
        break;
      case 1:
        text.erase(at, 1);
        break;
      case 2:
        text[at] = noise;
        break;
      case 3:
        std::swap(text[at], text[rng.below(text.size())]);
        break;
      case 4:
        text.resize(at);
        break;
      default:
        text.insert(rng.below(text.size()),
                    text.substr(at, 1 + rng.below(48)));
        break;
    }
  }

  std::string dom_error;
  try {
    (void)json::parse(text);
  } catch (const json::Error& e) {
    dom_error = e.what();
    EXPECT_FALSE(dom_error.empty());
  }
  if (name.rfind("postmortem", 0) == 0) return;

  const ParseResult parsed = parse_certificate(text);
  if (!parsed.certificate.has_value()) {
    EXPECT_FALSE(parsed.error.empty()) << text;
    return;
  }
  // The certificate reader adds schema checks on top of the DOM's rules,
  // never leniency.
  EXPECT_EQ(dom_error, "") << text;
  const std::string rendered = parsed.certificate->to_json();
  const ParseResult again = parse_certificate(rendered);
  ASSERT_TRUE(again.certificate.has_value()) << again.error << "\n" << text;
  EXPECT_EQ(*again.certificate, *parsed.certificate) << text;
  EXPECT_EQ(again.certificate->to_json(), rendered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzJsonReader,
                         ::testing::Range<std::uint64_t>(0, 400));

}  // namespace
}  // namespace wormnet::audit
