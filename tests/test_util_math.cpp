// Unit tests for the integer-math helpers that underpin the configuration
// enumeration (S3).

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>

#include "util/math.hpp"

namespace tfpe::util {
namespace {

TEST(Divisors, One) { EXPECT_EQ(divisors(1), (std::vector<std::int64_t>{1})); }

TEST(Divisors, Twelve) {
  EXPECT_EQ(divisors(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
}

TEST(Divisors, PerfectSquare) {
  EXPECT_EQ(divisors(16), (std::vector<std::int64_t>{1, 2, 4, 8, 16}));
}

TEST(Divisors, Prime) {
  EXPECT_EQ(divisors(97), (std::vector<std::int64_t>{1, 97}));
}

TEST(Divisors, Sorted) {
  const auto d = divisors(64800);  // the ViT sequence length
  EXPECT_TRUE(std::is_sorted(d.begin(), d.end()));
  for (auto v : d) EXPECT_EQ(64800 % v, 0);
}

TEST(Divisors, CapKeepsThoseAtOrBelowIt) {
  for (std::int64_t n : {1, 2, 12, 16, 36, 97, 720, 4096, 720720}) {
    const auto all = divisors(n);
    for (std::int64_t cap : {-1, 0, 1, 2, 5, 8, 26, 27, 64, 720, 1 << 20}) {
      std::vector<std::int64_t> kept;
      std::copy_if(all.begin(), all.end(), std::back_inserter(kept),
                   [&](std::int64_t d) { return d <= cap; });
      EXPECT_EQ(divisors(n, cap), kept) << n << " cap " << cap;
    }
  }
}

TEST(Divisors, ThrowsOnNonPositive) {
  EXPECT_THROW(divisors(0), std::invalid_argument);
  EXPECT_THROW(divisors(-4), std::invalid_argument);
}

TEST(OrderedFactorizations, CountForPowerOfTwo) {
  // Factorizations of 2^k into j ordered factors: C(k + j - 1, j - 1).
  const auto f = ordered_factorizations(16, 2);  // C(5,1) = 5
  EXPECT_EQ(f.size(), 5u);
  for (const auto& t : f) EXPECT_EQ(t[0] * t[1], 16);
}

TEST(OrderedFactorizations, FourWay) {
  const auto f = ordered_factorizations(8, 4);  // C(6,3) = 20
  EXPECT_EQ(f.size(), 20u);
  for (const auto& t : f) {
    EXPECT_EQ(std::accumulate(t.begin(), t.end(), std::int64_t{1},
                              std::multiplies<>()),
              8);
  }
}

TEST(OrderedFactorizations, OrderMatters) {
  const auto f = ordered_factorizations(6, 2);
  EXPECT_EQ(f.size(), 4u);  // (1,6),(2,3),(3,2),(6,1)
}

TEST(OrderedFactorizations, SingleFactor) {
  const auto f = ordered_factorizations(42, 1);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0][0], 42);
}

TEST(IsPowerOfTwo, Basics) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(16384));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(-8));
}

TEST(CeilDiv, Basics) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_THROW(ceil_div(1, 0), std::invalid_argument);
}

TEST(Gcd, Basics) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(7, 13), 1);
  EXPECT_EQ(gcd(0, 5), 5);
}

}  // namespace
}  // namespace tfpe::util
