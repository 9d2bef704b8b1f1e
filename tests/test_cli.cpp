// The tfpe front end, walked over its own flag tables: every flag is in its
// command's --help, every value flag given an unparseable, out-of-domain or
// missing value exits 2 with an error naming it, and a switch never takes
// the operand after it.
#include "cli.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/workload.hpp"
#include "io/args.hpp"
#include "model/shape_family.hpp"

namespace tfpe::cli {
namespace {

const std::string kData = TFPE_SOURCE_DIR "/tests/data/";

struct Ran {
  int code;
  std::string out;  ///< What it wrote to std::cout and std::cerr.
};

/// `tfpe args...`, run in-process.
Ran tfpe(std::vector<std::string> args) {
  args.insert(args.begin(), "tfpe");
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out;
  std::streambuf* const old_out = std::cout.rdbuf(out.rdbuf());
  std::streambuf* const old_err = std::cerr.rdbuf(out.rdbuf());
  const int code = run(static_cast<int>(argv.size()), argv.data());
  std::cout.rdbuf(old_out);
  std::cerr.rdbuf(old_err);
  return {code, out.str()};
}

/// The arguments under which `cmd` reads every row: sweep's SPEC, lint's
/// PATH, and --model custom for the [model] row flags.
std::vector<std::string> context(const std::string& cmd, const io::Row& r) {
  std::vector<std::string> out{cmd};
  if (cmd == "sweep") out.push_back(kData + "smoke_sweep.tfpe");
  if (cmd == "lint") out.push_back(kData + "codesign_smoke.tfpe");
  for (const io::Row& m : io::find_schema("model")->rows) {
    if (m.flag && std::string(m.flag) == r.flag) {
      out.insert(out.end(), {"--model", "custom"});
    }
  }
  return out;
}

/// Values `r` rejects: text that is no number or name, and one step past
/// each finite bound of its domain.
std::vector<std::string> bad_values(const io::Row& r) {
  const io::Domain& d = r.domain;
  std::vector<std::string> out;
  const bool numeric = r.kind == io::Kind::kInt || r.kind == io::Kind::kReal ||
                       r.kind == io::Kind::kInts || r.kind == io::Kind::kReals;
  if (numeric || r.kind == io::Kind::kName || r.kind == io::Kind::kNames) {
    out.push_back("bogus");
  }
  if (!numeric) return out;
  const bool integer = r.kind == io::Kind::kInt || r.kind == io::Kind::kInts;
  const auto text = [&](double x) {
    return integer ? std::to_string(static_cast<long long>(x))
                   : std::to_string(x);
  };
  if (std::isfinite(d.lo)) out.push_back(text(d.lo_open ? d.lo : d.lo - 1));
  if (std::isfinite(d.hi)) out.push_back(text(d.hi_open ? d.hi : d.hi + 1));
  return out;
}

TEST(CliFlags, EveryCommandHasRowsWithHelp) {
  const auto tables = flag_tables();
  EXPECT_EQ(tables.size(), 5u);
  for (const auto& [cmd, rows] : tables) {
    EXPECT_GT(rows.size(), 1u) << cmd;
    for (const io::Row& r : rows) {
      ASSERT_NE(r.flag, nullptr) << cmd << " " << r.key;
      EXPECT_NE(r.help, nullptr) << cmd << " --" << r.flag;
    }
  }
}

TEST(CliFlags, EveryFlagIsInItsCommandsHelp) {
  for (const auto& [cmd, rows] : flag_tables()) {
    const Ran help = tfpe({cmd, "--help"});
    EXPECT_EQ(help.code, 0) << cmd;
    EXPECT_EQ(help.out.rfind("usage: tfpe", 0), 0u) << cmd;
    for (const io::Row& r : rows) {
      EXPECT_NE(help.out.find("  --" + std::string(r.flag) + " "),
                std::string::npos)
          << cmd << " --help lacks --" << r.flag;
      if (r.fallback) {
        EXPECT_NE(help.out.find(std::string("default ") + r.fallback),
                  std::string::npos)
            << cmd << " --help lacks the default of --" << r.flag;
      }
    }
  }
}

TEST(CliFlags, EveryBadValueExitsTwoNamingTheFlag) {
  std::size_t checked = 0;
  for (const auto& [cmd, rows] : flag_tables()) {
    for (const io::Row& r : rows) {
      const std::string flag = "--" + std::string(r.flag);
      std::vector<std::vector<std::string>> cases;
      if (r.kind == io::Kind::kBool) {
        cases.push_back({flag + "=1"});
      } else {
        cases.push_back({flag});  // given last, with no value
        for (const std::string& v : bad_values(r)) cases.push_back({flag, v});
      }
      for (const auto& given : cases) {
        std::vector<std::string> args = context(cmd, r);
        args.insert(args.end(), given.begin(), given.end());
        const Ran ran = tfpe(args);
        EXPECT_EQ(ran.code, 2) << cmd << " " << given.back() << "\n"
                               << ran.out;
        EXPECT_EQ(ran.out.rfind("error: flag " + flag + " ", 0), 0u)
            << cmd << " " << given.back() << "\n" << ran.out;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(CliFlags, SwitchLeavesTheNextOperandPositional) {
  for (const auto& [cmd, rows] : flag_tables()) {
    for (const io::Row& r : rows) {
      if (r.kind != io::Kind::kBool) continue;
      const std::string flag = "--" + std::string(r.flag);
      const char* argv[] = {"tfpe", flag.c_str(), "operand"};
      const io::ArgParser args(rows, 3, argv);
      EXPECT_TRUE(args.has(r.flag)) << cmd << " " << flag;
      EXPECT_EQ(args.positional(), std::vector<std::string>{"operand"})
          << cmd << " " << flag;
    }
  }
  // End to end: the flag order does not change which file is linted.
  const std::string path = kData + "codesign_smoke.tfpe";
  const Ran ran = tfpe({"lint", "--strict", path});
  EXPECT_EQ(ran.code, 0) << ran.out;
  EXPECT_NE(ran.out.find("lint " + path), std::string::npos) << ran.out;
}

/// The [serving] and [codesign] row flags default to their records' own
/// members (core::ServingSpec, model::ShapeFamilyOptions), and each flag's
/// --help entry says so.
TEST(CliFlags, RecordFlagsShowTheRecordsDefaults) {
  const core::ServingSpec serving;
  const model::ShapeFamilyOptions family;
  const auto list = [](const std::vector<std::int64_t>& xs) {
    std::string out;
    for (const std::int64_t x : xs) {
      out += (out.empty() ? "" : ",") + std::to_string(x);
    }
    return out;
  };
  const auto real = [](double x) {
    std::ostringstream out;
    out << x;
    return out.str();
  };
  const std::vector<std::array<std::string, 3>> cases = {
      {"serve-plan", "prompt", std::to_string(serving.prompt_len)},
      {"serve-plan", "output", std::to_string(serving.output_len)},
      {"serve-plan", "tp", list(serving.tp)},
      {"serve-plan", "pp", list(serving.pp)},
      {"serve-plan", "batch", list(serving.batch)},
      {"serve-plan", "kv-cap", real(serving.kv_cap_fraction)},
      {"codesign", "tolerance", real(family.tolerance)},
  };
  for (const auto& [cmd, flag, value] : cases) {
    const Ran help = tfpe({cmd, "--help"});
    ASSERT_EQ(help.code, 0) << cmd;
    // The flag's entry: its help line and the note under it.
    const std::size_t at = help.out.find("  --" + flag + " ");
    ASSERT_NE(at, std::string::npos) << cmd << " --" << flag;
    const std::size_t end = help.out.find("\n  --", at + 1);
    const std::string entry = help.out.substr(at, end - at);
    EXPECT_NE(entry.find("default " + value + ")"), std::string::npos)
        << cmd << " --" << flag << ":\n" << entry;
  }
}

}  // namespace
}  // namespace tfpe::cli
