// The one strict reader for numbers in spec text: topology specs, sweep
// grids, fault and transition plans, and command-line values.
//
// A number is the whole text, read by std::from_chars: decimal digits for
// an integer type (no sign on an unsigned T, no leading '+', space or
// suffix, no base prefix) and the general decimal form for a floating T
// (no hex float).  The value must fit T; a floating value must also be
// finite.  Header-only and standard-library-only, so the standalone tools
// can use it without linking the library.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace wormnet::util {

/// Why read_number found no value.
enum class NumberError : std::uint8_t {
  kNone,        ///< the text is a number that fits T
  kMalformed,   ///< empty, or not wholly a number of T's form
  kOutOfRange,  ///< a well-formed number that does not fit T
};

template <class T>
struct NumberRead {
  T value{};
  NumberError error = NumberError::kMalformed;

  [[nodiscard]] explicit operator bool() const noexcept {
    return error == NumberError::kNone;
  }
};

/// Reads all of `text` as a T (see the file comment for the rules).
template <class T>
[[nodiscard]] NumberRead<T> read_number(std::string_view text) {
  NumberRead<T> out;
  if (text.empty()) return out;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out.value);
  if (ec == std::errc::result_out_of_range && ptr == end) {
    out.error = NumberError::kOutOfRange;
  } else if (ec != std::errc{} || ptr != end) {
    out.error = NumberError::kMalformed;
  } else if constexpr (std::is_floating_point_v<T>) {
    out.error = std::isfinite(out.value) ? NumberError::kNone
                                         : NumberError::kOutOfRange;
  } else {
    out.error = NumberError::kNone;
  }
  return out;
}

}  // namespace wormnet::util
