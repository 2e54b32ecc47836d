// Exact floating-point summation: a fixed-point superaccumulator holding
// the exact sum of any multiset of doubles, read back correctly rounded.
//
// A sum read through ExactSum does not depend on the order, grouping or
// splitting of its terms, so a total may be assembled from range sums
// (differences of prefix snapshots), from per-block partial sums merged in
// any order, or term by term, and still produce one double. This is the
// design of Neal's "small superaccumulator" (Neal, "Fast exact summation
// using small and large superaccumulators", arXiv:1505.05571), after
// Shewchuk's exact arithmetic ("Adaptive Precision Floating-Point
// Arithmetic and Fast Robust Geometric Predicates", 1997).
//
// Representation: the sum is an integer count of 2^-1075 units held in
// 32-bit digits, chunk j weighing 2^(32 j - 1075), each digit a signed
// 64-bit word with 30 bits of headroom. A double's 53-bit significand,
// shifted by the low five bits of its exponent field, lands in two adjacent
// chunks: adding a term is two integer adds, and carries are propagated
// only when a digit nears the end of its headroom.
//
// Value rule:
// - any NaN term, or both +inf and -inf among the terms: a quiet NaN;
// - else any +inf (-inf) term: +inf (-inf);
// - else the exact sum of the finite terms rounded to nearest, ties to
//   even, overflowing to +-inf past the largest double. An exact zero reads
//   +0.0, as 0.0 + -0.0 does, so a sum of zeros of either sign is +0.0.
// Infinities and NaNs are counted, so subtract() removes them exactly too.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

namespace epserve::util {

// GCC and Clang's 128-bit integers, for the digit arithmetic; __extension__
// marks the deliberate use under -Wpedantic.
__extension__ typedef __int128 Int128;
__extension__ typedef unsigned __int128 UInt128;

class ExactSum {
 public:
  /// Adds one term.
  void add(double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t exponent = (bits >> 52) & 0x7ff;
    // The fast path: a term within the window's binades, scaled by a power
    // of two, is exactly an integer count of window units below 2^63.
    if (exponent - window_low_ <= kWindowSpan) {
      window_sum_ += static_cast<std::int64_t>(x * window_scale_);
      return;
    }
    add_outside(bits, exponent);
  }

  /// Adds `copies` copies of one term, exactly: the same value as calling
  /// add(x) `copies` times.
  void add(double x, std::uint64_t copies) {
    if (copies == 0) return;
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t exponent = (bits >> 52) & 0x7ff;
    if (exponent - 1 >= 0x7fe) {
      add_rare(bits, copies);
      return;
    }
    add_copies(bits, exponent, (bits & kFractionMask) | kImplicitBit, copies);
  }

  /// Adds every term of `other`.
  void merge(const ExactSum& other) {
    if (&other == this) {
      const ExactSum copy = other;
      combine(copy, 1);
      return;
    }
    combine(other, 1);
  }

  /// Removes every term of `other`: the sum of this multiset less other's.
  void subtract(const ExactSum& other) {
    if (&other == this) {
      *this = ExactSum();
      return;
    }
    combine(other, -1);
  }

  /// The correctly rounded sum (see the value rule above).
  [[nodiscard]] double value() const {
    if (nan_ != 0 || (pos_inf_ != 0 && neg_inf_ != 0)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (pos_inf_ != 0) return std::numeric_limits<double>::infinity();
    if (neg_inf_ != 0) return -std::numeric_limits<double>::infinity();

    std::int64_t digit[kChunks];
    for (std::size_t j = 0; j < kChunks; ++j) digit[j] = chunk_[j];
    add_window(digit, window_sum_, window_low_);
    normalize(digit);
    const bool negative = digit[kChunks - 1] < 0;
    if (negative) {
      for (std::int64_t& d : digit) d = -d;
      normalize(digit);
    }
    // Every digit is now in [0, 2^32) except the top one, which is >= 0.
    std::size_t top = kChunks;
    while (top > 0 && digit[top - 1] == 0) --top;
    if (top == 0) return 0.0;
    --top;
    if (top >= kChunks - 2 || digit[top] >= (std::int64_t{1} << 32)) {
      return negative ? -std::numeric_limits<double>::infinity()
                      : std::numeric_limits<double>::infinity();
    }
    const auto top_bits =
        static_cast<unsigned>(std::bit_width(static_cast<std::uint64_t>(digit[top])));
    const std::size_t length = 32 * top + top_bits;  // bits in the sum
    std::uint64_t result = 0;
    if (length <= 53) {
      // Below 2^-1021: a multiple of 2^-1074 (every term is one), so the
      // subnormal encoding of half the unit count is exact.
      const std::uint64_t units =
          static_cast<std::uint64_t>(digit[0]) |
          (top >= 1 ? static_cast<std::uint64_t>(digit[1]) << 32 : 0);
      result = units >> 1;
    } else {
      // The top three digits hold the 53 kept bits, the rounding bit and at
      // least 10 more; anything below them only makes the remainder sticky.
      const auto at = [&digit](std::size_t j, std::size_t down) {
        return j >= down ? static_cast<std::uint64_t>(digit[j - down]) : 0;
      };
      const UInt128 window =
          static_cast<UInt128>(at(top, 0)) << 64 |
          static_cast<UInt128>(at(top, 1)) << 32 | at(top, 2);
      const unsigned drop = top_bits + 64 - 53;
      std::uint64_t significand = static_cast<std::uint64_t>(window >> drop);
      const UInt128 rest =
          window & ((static_cast<UInt128>(1) << drop) - 1);
      const UInt128 half = static_cast<UInt128>(1)
                                     << (drop - 1);
      bool sticky = false;
      for (std::size_t j = 0; j + 2 < top; ++j) sticky |= digit[j] != 0;
      std::uint64_t exponent = length - 53;  // the biased exponent field
      if (rest > half || (rest == half && (sticky || (significand & 1)))) {
        if (++significand == (kImplicitBit << 1)) {
          significand = kImplicitBit;
          ++exponent;
        }
      }
      if (exponent >= 0x7ff) {
        return negative ? -std::numeric_limits<double>::infinity()
                        : std::numeric_limits<double>::infinity();
      }
      result = exponent << 52 | (significand & kFractionMask);
    }
    if (negative) result |= std::uint64_t{1} << 63;
    return std::bit_cast<double>(result);
  }

 private:
  static constexpr std::uint64_t kFractionMask = (std::uint64_t{1} << 52) - 1;
  static constexpr std::uint64_t kImplicitBit = std::uint64_t{1} << 52;
  static constexpr std::uint64_t kDigitMask = 0xffffffffULL;
  // A term reaches bit 2046 + 53 of the unit count and a copies product 64
  // bits more (chunk 67); the last chunk holds the sign and any carry.
  static constexpr std::size_t kChunks = 69;
  static constexpr std::uint64_t kCarryBound = std::uint64_t{1} << 62;
  // The window: terms whose exponent field lies in [window_low_,
  // window_low_ + kWindowSpan] are summed as integers in units of
  // 2^(window_low_ - 1075), each below 2^(53 + kWindowSpan) = 2^63. The
  // window opens on the first term outside it, centred on that term's
  // exponent, between kWindowLowest (so the scale 2^(1075 - low) is a
  // double) and kWindowHighest (so infinities and NaNs stay outside).
  static constexpr std::uint64_t kWindowSpan = 10;
  static constexpr std::uint64_t kWindowLowest = 52;
  static constexpr std::uint64_t kWindowHighest = 0x7fe - kWindowSpan;
  static constexpr std::uint64_t kNoWindow = 1 << 12;  // nothing is inside

  /// Brings every digit but the top into [0, 2^32), carrying upwards.
  static void normalize(std::int64_t (&digit)[kChunks]) {
    for (std::size_t j = 0; j + 1 < kChunks; ++j) {
      const std::int64_t carry_out = digit[j] >> 32;  // arithmetic: floor
      digit[j] -= carry_out * (std::int64_t{1} << 32);
      digit[j + 1] += carry_out;
    }
  }

  /// Adds `sum` units of 2^(low - 1075) into digits from bit `low` of the
  /// unit count upwards, each piece below 2^32 (the last may be -1).
  static void add_window(std::int64_t (&digit)[kChunks], Int128 sum,
                         std::uint64_t low) {
    if (sum == 0) return;
    std::size_t chunk = low >> 5;
    const auto low_shift = static_cast<unsigned>(low & 31);
    const unsigned first_bits = 32 - low_shift;
    digit[chunk] += static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(sum) & ((std::uint64_t{1} << first_bits) - 1))
        << low_shift);
    sum >>= first_bits;  // arithmetic: floor
    while (sum != 0 && sum != -1) {
      ++chunk;
      digit[chunk] +=
          static_cast<std::int64_t>(static_cast<std::uint64_t>(sum) & kDigitMask);
      sum >>= 32;
    }
    if (sum == -1) digit[chunk + 1] -= 1;
  }

  /// A term outside the window: opens the window on the first normal term
  /// that can anchor one, else goes to the digits.
  void add_outside(std::uint64_t bits, std::uint64_t exponent) {
    if (exponent - 1 >= 0x7fe) {  // zero, subnormal, infinity or NaN
      add_rare(bits, 1);
      return;
    }
    if (window_low_ == kNoWindow && exponent >= kWindowLowest) {
      window_low_ = std::min(std::max(exponent - kWindowSpan / 2, kWindowLowest),
                             kWindowHighest);
      window_scale_ = std::bit_cast<double>((1075 - window_low_ + 1023) << 52);
      if (exponent - window_low_ <= kWindowSpan) {
        window_sum_ += static_cast<std::int64_t>(std::bit_cast<double>(bits) *
                                                 window_scale_);
        return;
      }
    }
    add_digits(bits, exponent, (bits & kFractionMask) | kImplicitBit);
  }

  /// A finite nonzero term with its biased exponent field (1 for a
  /// subnormal) and its significand, implicit bit included.
  void add_digits(std::uint64_t bits, std::uint64_t exponent,
                  std::uint64_t significand) {
    const auto low_shift = static_cast<unsigned>(exponent & 31);
    const std::size_t chunk = exponent >> 5;
    // lo < 2^32 and hi < 2^52: 32 - low_shift is in [1, 32].
    const auto lo =
        static_cast<std::int64_t>((significand << low_shift) & kDigitMask);
    const auto hi = static_cast<std::int64_t>(significand >> (32 - low_shift));
    const std::int64_t sign = static_cast<std::int64_t>(bits) >> 63;  // 0, -1
    const std::int64_t low_digit = chunk_[chunk] + ((lo ^ sign) - sign);
    const std::int64_t high_digit = chunk_[chunk + 1] + ((hi ^ sign) - sign);
    chunk_[chunk] = low_digit;
    chunk_[chunk + 1] = high_digit;
    // Every digit stays below 2^62 in magnitude between adds, and an add
    // moves one by under 2^52, so none can overflow: carry as soon as a
    // digit leaves [-2^62, 2^62).
    if (((static_cast<std::uint64_t>(low_digit) + kCarryBound) |
         (static_cast<std::uint64_t>(high_digit) + kCarryBound)) >> 63 != 0) {
      normalize(chunk_);
    }
  }

  /// `copies` copies of a finite nonzero term: the product has at most 117
  /// bits, laid into 32-bit digits from the term's own chunk upwards, each
  /// piece below 2^32.
  void add_copies(std::uint64_t bits, std::uint64_t exponent,
                  std::uint64_t significand, std::uint64_t copies) {
    normalize(chunk_);  // every digit below 2^32; each piece adds under 2^32
    const bool negative = (bits >> 63) != 0;
    UInt128 product = static_cast<UInt128>(significand) * copies;
    const auto low_shift = static_cast<unsigned>(exponent & 31);
    std::size_t chunk = exponent >> 5;
    const auto first_bits = 32 - low_shift;
    auto piece = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(
            product & ((static_cast<UInt128>(1) << first_bits) - 1))
        << low_shift);
    chunk_[chunk] += negative ? -piece : piece;
    product >>= first_bits;
    while (product != 0) {
      ++chunk;
      piece = static_cast<std::int64_t>(product & kDigitMask);
      chunk_[chunk] += negative ? -piece : piece;
      product >>= 32;
    }
  }

  /// Zeros (nothing to add), subnormals (exponent field 0 read as 1, no
  /// implicit bit), infinities and NaNs (counted).
  void add_rare(std::uint64_t bits, std::uint64_t copies) {
    const std::uint64_t exponent = (bits >> 52) & 0x7ff;
    const std::uint64_t fraction = bits & kFractionMask;
    if (exponent == 0x7ff) {
      const auto count = static_cast<std::int64_t>(copies);
      if (fraction != 0) {
        nan_ += count;
      } else if ((bits >> 63) != 0) {
        neg_inf_ += count;
      } else {
        pos_inf_ += count;
      }
      return;
    }
    if (fraction == 0) return;  // +-0.0 adds nothing
    if (copies == 1) {
      add_digits(bits, 1, fraction);
    } else {
      add_copies(bits, 1, fraction, copies);
    }
  }

  /// this += sign * other, digit by digit in 128-bit words, leaving this
  /// normalized whatever either side's headroom.
  void combine(const ExactSum& other, std::int64_t sign) {
    // Every digit is below 2^62 in magnitude, and the other side's window
    // moves each by under 2^32.
    add_window(chunk_, sign * other.window_sum_, other.window_low_);
    Int128 carry_in = 0;
    for (std::size_t j = 0; j + 1 < kChunks; ++j) {
      const Int128 digit = static_cast<Int128>(chunk_[j]) +
                             sign * static_cast<Int128>(other.chunk_[j]) +
                             carry_in;
      const Int128 low = digit & static_cast<Int128>(kDigitMask);
      chunk_[j] = static_cast<std::int64_t>(low);
      carry_in = (digit - low) >> 32;
    }
    chunk_[kChunks - 1] = static_cast<std::int64_t>(
        chunk_[kChunks - 1] + sign * other.chunk_[kChunks - 1] + carry_in);
    nan_ += sign * other.nan_;
    pos_inf_ += sign * other.pos_inf_;
    neg_inf_ += sign * other.neg_inf_;
  }

  std::int64_t chunk_[kChunks] = {};
  std::int64_t nan_ = 0;
  std::int64_t pos_inf_ = 0;
  std::int64_t neg_inf_ = 0;
  Int128 window_sum_ = 0;
  std::uint64_t window_low_ = kNoWindow;
  double window_scale_ = 0.0;
};

}  // namespace epserve::util
