#pragma once
// Small integer-math helpers used by the configuration enumeration (S3).

#include <cstdint>
#include <limits>
#include <vector>

namespace tfpe::util {

/// The positive divisors of n that are <= cap (all of them by default),
/// ascending, in O(min(sqrt(n), cap)) steps. n must be >= 1.
std::vector<std::int64_t> divisors(
    std::int64_t n,
    std::int64_t cap = std::numeric_limits<std::int64_t>::max());

/// All ordered k-tuples (f0,...,f{k-1}) of positive integers with
/// f0*...*f{k-1} == n. Order matters: (2,4) and (4,2) are distinct.
std::vector<std::vector<std::int64_t>> ordered_factorizations(std::int64_t n,
                                                              int k);

/// True if v is a power of two (v >= 1).
bool is_power_of_two(std::int64_t v);

/// Ceiling division for non-negative integers.
std::int64_t ceil_div(std::int64_t a, std::int64_t b);

/// Greatest common divisor.
std::int64_t gcd(std::int64_t a, std::int64_t b);

}  // namespace tfpe::util
