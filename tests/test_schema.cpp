// Lint/loader agreement over every row of every .tfpe record table: for
// each row, values just inside and just outside its domain, empty list
// entries, trailing garbage, int64 overflow and non-finite reals. The
// schema lint must fire exactly the row's rule at that key's line if and
// only if the record's loader throws.
#include "io/schema.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "io/args.hpp"
#include "io/config_lint.hpp"
#include "io/plan_io.hpp"
#include "util/strings.hpp"

namespace tfpe::io {
namespace {

using analysis::Severity;

/// A schema-clean file per record: the lines before the record's section
/// header, and its own keys. Every row's boundary value keeps the record
/// valid across keys (heads = 1 divides any embed, and at depth 1 embed's
/// largest keeps the parameter count inside int64; no aspect or range
/// bounds in [codesign], so an out-of-order range fires at the row's own
/// key).
struct Fixture {
  std::string before;
  std::map<std::string, std::string> keys;
  std::function<void(const Section&)> load;
};

const std::map<std::string, Fixture>& fixtures() {
  static const std::map<std::string, Fixture> all{
      {"model",
       {"",
        {{"name", "probe"}, {"seq_len", "64"}, {"embed", "64"},
         {"heads", "1"}, {"depth", "1"}},
        [](const Section& s) { (void)model_from_section(s); }}},
      {"system",
       {"",
        {{"gpu", "b200"}, {"nvs_domain", "8"}, {"n_gpus", "64"}},
        [](const Section& s) { (void)system_from_section(s); }}},
      {"topology",
       {"",
        {{"levels", "nvs, ib"}, {"gbs", "900, 50"}},
        [](const Section& s) { (void)topology_from_section(s); }}},
      {"plan",
       {"",
        {{"strategy", "1d"}, {"n1", "8"}, {"np", "4"}, {"nd", "2"},
         {"microbatches", "4"}, {"global_batch", "64"}},
        [](const Section& s) { (void)plan_from_section(s); }}},
      {"sweep",
       {"",
        {{"model", "gpt3-175b"}, {"gpus", "64"}},
        [](const Section& s) { (void)sweep_from_section(s); }}},
      {"codesign",
       {"[model]\npreset = gpt3-175b\n",
        {{"tolerance", "0.05"}, {"depths", "48, 96"}, {"heads", "64, 96"},
         {"head_dims", "128"}},
        [](const Section& s) { (void)codesign_from_section(s); }}},
      {"serving",
       {"",
        {{"prompt_len", "128"}},
        [](const Section& s) { (void)serving_from_section(s); }}},
  };
  return all;
}

std::string real_text(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// One value per draw for `row`, as a single entry (lists repeat it).
std::vector<std::string> entry_cases(const Row& row, std::mt19937& rng) {
  const Domain& d = row.domain;
  const Kind entry = is_list(row.kind)
                         ? static_cast<Kind>(static_cast<int>(row.kind) - 4)
                         : row.kind;
  const std::vector<std::string> junk{"x", "abc", "e", "-", " 7", "_"};
  std::uniform_int_distribution<std::size_t> pick(0, junk.size() - 1);
  std::vector<std::string> out;
  const auto plain = [&](const std::string& v) {
    out.push_back(v);
    out.push_back(v + junk[pick(rng)]);  // trailing garbage
  };
  const bool has_lo = std::isfinite(d.lo);
  const bool has_hi = std::isfinite(d.hi);
  if (entry == Kind::kInt) {
    plain(has_lo ? std::to_string(static_cast<long long>(d.lo)) : "1");
    if (has_lo) out.push_back(std::to_string(static_cast<long long>(d.lo) - 1));
    if (has_hi) {
      out.push_back(std::to_string(static_cast<long long>(d.hi)));
      out.push_back(std::to_string(static_cast<long long>(d.hi) + 1));
    }
    out.insert(out.end(), {"99999999999999999999", "-99999999999999999999",
                           "1.5", "nan"});
  } else if (entry == Kind::kReal) {
    const double step = 1e-6 * std::max(1.0, std::fabs(has_lo ? d.lo : 1.0));
    plain(has_lo ? real_text(d.lo_open ? d.lo + step : d.lo) : "1");
    if (has_lo) out.push_back(real_text(d.lo_open ? d.lo : d.lo - step));
    if (has_hi) {
      const double hstep = 1e-6 * std::max(1.0, std::fabs(d.hi));
      out.push_back(real_text(d.hi_open ? d.hi - hstep : d.hi));
      out.push_back(real_text(d.hi_open ? d.hi : d.hi + hstep));
    }
    // A seeded draw across (and a little beyond) the domain.
    const double a = has_lo ? d.lo : -10.0;
    const double b = has_hi ? d.hi : a + 10.0;
    std::uniform_real_distribution<double> draw(a - 0.1 * (b - a),
                                                b + 0.1 * (b - a));
    for (int i = 0; i < 3; ++i) out.push_back(real_text(draw(rng)));
    if (d.integral) out.push_back("0.5");
    out.insert(out.end(), {"nan", "inf", "-inf", "1e999", "1e30"});
  } else if (entry == Kind::kName) {
    std::string inside;
    if (d.known) {
      for (const char* n : {"gpt3-175b", "b200", "1d"}) {
        if (d.known(n)) inside = n;
      }
    } else {
      inside = util::split_list(d.names, '|').front();
    }
    EXPECT_FALSE(inside.empty()) << row.key;
    plain(inside);
    out.push_back("bogus");
  } else {
    plain("probe");
  }
  out.push_back("");
  return out;
}

/// The values to write for `row`: each entry case, repeated to the base
/// list's length for a list, plus empty leading and trailing entries.
std::vector<std::string> value_cases(const Row& row, const Fixture& f,
                                     std::mt19937& rng) {
  std::vector<std::string> out;
  const auto base = f.keys.find(row.key);
  const std::size_t n =
      base != f.keys.end() ? util::split_list(base->second).size() : 2;
  for (const std::string& entry : entry_cases(row, rng)) {
    if (!is_list(row.kind)) {
      out.push_back(entry);
      continue;
    }
    std::vector<std::string> items(n, entry);
    out.push_back(util::join(items, ", "));
    out.push_back(entry + ", ");
    out.push_back(", " + entry);
  }
  return out;
}

TEST(SchemaAgreement, LintFiresTheRowRuleIffTheLoaderThrows) {
  std::mt19937 rng(20261018);
  std::size_t cases = 0;
  std::size_t rejected = 0;
  for (const Schema& schema : schemas()) {
    ASSERT_TRUE(fixtures().count(schema.section)) << schema.section;
    const Fixture& f = fixtures().at(schema.section);
    for (const Row& row : schema.rows) {
      for (const std::string& value : value_cases(row, f, rng)) {
        // The record's section, the mutated key last.
        std::string text = f.before + "[" + schema.section + "]\n";
        Section section;
        for (const auto& [key, v] : f.keys) {
          if (key == row.key) continue;
          text += key + " = " + v + "\n";
          section[key] = v;
        }
        text += std::string(row.key) + " = " + value + "\n";
        section[row.key] = util::trim(value);
        const int line = static_cast<int>(
            std::count(text.begin(), text.end(), '\n'));

        bool throws = false;
        try {
          f.load(section);
        } catch (const std::exception&) {
          throws = true;
        }
        std::istringstream in(text);
        const analysis::LintReport report = lint_config_text(in, "t.tfpe");
        bool fired = false;
        for (const analysis::Diagnostic& d : report.diagnostics) {
          if (d.line != line) continue;
          EXPECT_EQ(d.id, row.rule) << text << report.summary();
          fired = fired || (d.id == row.rule &&
                            d.severity == Severity::kError);
        }
        EXPECT_EQ(fired, throws) << text << report.summary();
        ++cases;
        rejected += throws;
      }
    }
  }
  // Both outcomes are exercised, many times over.
  EXPECT_GT(cases, 1000u);
  EXPECT_GT(rejected, cases / 3);
  EXPECT_LT(rejected, cases);
}

/// `section` as [sweep] with `--flag value` for each of `flags` written
/// over it by the parser's record().
Section over_sweep(const Section& section,
                   const std::map<std::string, std::string>& flags) {
  std::vector<std::string> argv{"tfpe"};
  for (const auto& [flag, value] : flags) {
    argv.insert(argv.end(), {"--" + flag, value});
  }
  std::vector<const char*> ptrs;
  for (const std::string& a : argv) ptrs.push_back(a.c_str());
  const ArgParser args(find_schema("sweep")->rows,
                       static_cast<int>(ptrs.size()), ptrs.data());
  return args.record({{"sweep", section}}, "sweep");
}

using Texts = std::vector<std::string>;

TEST(WithFlags, FlagOverridesTheSectionValue) {
  const Section s = over_sweep({{"gpu", "a100"}, {"batch", "256"}},
                               {{"gpu", "h200"}, {"batch", "512"}});
  EXPECT_EQ(s.at("gpu"), "h200");
  const SweepSpec spec = sweep_from_section(s);
  EXPECT_EQ(spec.gpu, Texts{"h200"});
  EXPECT_EQ(spec.batch, Texts{"512"});
}

TEST(WithFlags, AbsentFlagKeepsTheSectionValue) {
  // Only the row flags are asked for: `model` and `oversub` have none.
  const Section s =
      over_sweep({{"gpu", "a100"}, {"oversub", "2"}},
                 {{"strategy", "2d"}, {"model", "gpt3-175b"},
                  {"oversub", "4"}});
  EXPECT_EQ(s, (Section{{"gpu", "a100"}, {"oversub", "2"},
                        {"strategy", "2d"}}));
  const SweepSpec spec = sweep_from_section(s);
  EXPECT_EQ(spec.gpu, Texts{"a100"});
  EXPECT_EQ(spec.oversub, Texts{"2"});
  EXPECT_EQ(spec.model, Texts{"gpt3-1t"});  // the row's default
  EXPECT_EQ(spec.nvs, Texts{"8"});
}

TEST(WithFlags, ListFlagReadsAsTheRowsList) {
  const SweepSpec spec = sweep_from_section(over_sweep(
      {{"nvs", "64"}},
      {{"nvs", "4,8"}, {"gpu", "a100,b200"}, {"gpus", "64,128"}}));
  EXPECT_EQ(spec.nvs, (Texts{"4", "8"}));
  EXPECT_EQ(spec.gpu, (Texts{"a100", "b200"}));
  EXPECT_EQ(spec.gpus, (Texts{"64", "128"}));
}

TEST(WithFlags, OutOfDomainValueThrowsNamingTheFlag) {
  const std::vector<std::pair<std::string, std::string>> bad{
      {"strategy", "3d"}, {"strategy", "all"}, {"nvs", "0"},
      {"nvs", "4,"},      {"gpus", "abc"},     {"batch", "-5"},
      {"gpu", "x100"}};
  for (const auto& [flag, value] : bad) {
    try {
      (void)over_sweep({}, {{flag, value}});
      ADD_FAILURE() << "--" << flag << " " << value << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("flag --" + flag + " ", 0), 0u)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace tfpe::io
