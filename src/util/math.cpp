#include "util/math.hpp"

#include <algorithm>
#include <stdexcept>

namespace tfpe::util {

std::vector<std::int64_t> divisors(std::int64_t n, std::int64_t cap) {
  if (n < 1) throw std::invalid_argument("divisors: n must be >= 1");
  std::vector<std::int64_t> low, high;
  for (std::int64_t d = 1; d * d <= n && d <= cap; ++d) {
    if (n % d == 0) {
      low.push_back(d);
      if (d != n / d && n / d <= cap) high.push_back(n / d);
    }
  }
  low.insert(low.end(), high.rbegin(), high.rend());
  return low;
}

namespace {

void factorize_rec(std::int64_t n, int k, std::vector<std::int64_t>& prefix,
                   std::vector<std::vector<std::int64_t>>& out) {
  if (k == 1) {
    prefix.push_back(n);
    out.push_back(prefix);
    prefix.pop_back();
    return;
  }
  for (std::int64_t d : divisors(n)) {
    prefix.push_back(d);
    factorize_rec(n / d, k - 1, prefix, out);
    prefix.pop_back();
  }
}

}  // namespace

std::vector<std::vector<std::int64_t>> ordered_factorizations(std::int64_t n,
                                                              int k) {
  if (n < 1) throw std::invalid_argument("ordered_factorizations: n must be >= 1");
  if (k < 1) throw std::invalid_argument("ordered_factorizations: k must be >= 1");
  std::vector<std::vector<std::int64_t>> out;
  std::vector<std::int64_t> prefix;
  factorize_rec(n, k, prefix, out);
  return out;
}

bool is_power_of_two(std::int64_t v) { return v >= 1 && (v & (v - 1)) == 0; }

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  if (b <= 0) throw std::invalid_argument("ceil_div: b must be > 0");
  return (a + b - 1) / b;
}

std::int64_t gcd(std::int64_t a, std::int64_t b) {
  while (b != 0) {
    std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a < 0 ? -a : a;
}

}  // namespace tfpe::util
