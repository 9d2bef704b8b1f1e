#include "io/schema.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "io/plan_io.hpp"
#include "util/strings.hpp"

namespace tfpe::io {

namespace {

using analysis::RuleId;
using enum Kind;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// A round real below 2^63: whole numbers up to it convert to int64.
constexpr double kInt64Real = 9.2e18;

// --- domains ---------------------------------------------------------------

Domain above(double lo) { return {lo, kInf, true}; }
Domain fraction() { return {0.0, 1.0, true}; }       // (0, 1]
Domain open_band() { return {0.0, 1.0, true, true}; }  // (0, 1)
Domain whole() { return {-kInt64Real, kInt64Real, false, false, true}; }

bool is_model_preset(const std::string& n) {
  return model::preset_by_name(n).has_value();
}
bool is_gpu(const std::string& n) {
  return hw::generation_by_name(n).has_value();
}
bool is_strategy(const std::string& n) {
  return parallel::strategy_by_name(n).has_value();
}

// --- reading one value -------------------------------------------------------

/// A list kind's entry kind.
Kind entry_kind(Kind k) {
  return is_list(k) ? static_cast<Kind>(static_cast<int>(k) - 4) : k;
}

bool admits(const Domain& d, double v) {
  return (d.lo_open ? v > d.lo : v >= d.lo) &&
         (d.hi_open ? v < d.hi : v <= d.hi) &&
         (!d.integral || std::floor(v) == v);
}

bool known_name(const Domain& d, const std::string& name) {
  if (d.known) return d.known(name);
  const auto set = util::split_list(d.names, '|');
  return std::find(set.begin(), set.end(), name) != set.end();
}

/// Read `text` by row `r` into `v`; why the row rejects it, or nullopt.
std::optional<std::string> read_value(const Row& r, const std::string& text,
                                      Value& v) {
  v.text = text;
  v.items = is_list(r.kind) ? util::split_list(text, ',', true)
                            : std::vector<std::string>{text};
  for (const std::string& item : v.items) {
    if (is_list(r.kind) && item.empty()) {
      return "has an empty entry in '" + text + "'";
    }
    bool ok = true;
    if (entry_kind(r.kind) == kInt) {
      const auto i = util::parse_int(item);
      ok = i && admits(r.domain, static_cast<double>(*i));
      if (ok) v.ints.push_back(*i);
    } else if (entry_kind(r.kind) == kReal) {
      const auto x = util::parse_real(item);
      ok = x && std::isfinite(*x * r.scale) && admits(r.domain, *x);
      if (ok) v.reals.push_back(*x * r.scale);
    } else if (entry_kind(r.kind) == kName) {
      ok = known_name(r.domain, item);
    }
    if (!ok) return "expects " + describe(r) + ", got '" + item + "'";
  }
  return std::nullopt;
}

// --- setting a member ------------------------------------------------------

void assign(std::int64_t& m, const Value& v) { m = v.ints.front(); }
void assign(bool& m, const Value& v) { m = v.ints.front() != 0; }
void assign(double& m, const Value& v) { m = v.reals.front(); }
void assign(std::string& m, const Value& v) { m = v.text; }
void assign(std::vector<std::int64_t>& m, const Value& v) { m = v.ints; }
void assign(std::vector<std::string>& m, const Value& v) { m = v.items; }
template <int F, int B, int S>
void assign(util::Quantity<F, B, S>& m, const Value& v) {
  m = util::Quantity<F, B, S>(v.reals.front());
}

double number(double x) { return x; }
template <int F, int B, int S>
double number(util::Quantity<F, B, S> q) {
  return q.value();
}

template <class>
struct MemberOf;
template <class R, class T>
struct MemberOf<T R::*> {
  using Record = R;
};

/// Setter writing a row's value into the member at `First.*Rest...`.
template <auto First, auto... Rest>
void set(typename MemberOf<decltype(First)>::Record& rec, const Value& v) {
  assign(((rec.*First) .* ... .* Rest), v);
}

std::string text(double x, double scale) {
  std::ostringstream out;
  out.precision(17);
  out << x / scale;
  return out.str();
}
std::string text(bool b, double) { return b ? "1" : "0"; }

/// Getter writing the member at `First.*Rest...` back as a row's text.
template <auto First, auto... Rest>
std::string get(const typename MemberOf<decltype(First)>::Record& rec,
                const Row& r) {
  return text(((rec.*First) .* ... .* Rest), r.scale);
}

/// Setter for a [topology] per-level list: entry i goes to level i, and a
/// one-entry default to every level.
template <auto M>
void set_levels(hw::Topology& t, const Value& v) {
  for (std::size_t i = 0; i < t.levels.size(); ++i) {
    auto& member = t.levels[i].*M;
    member = static_cast<std::remove_reference_t<decltype(member)>>(
        v.reals[std::min(i, v.reals.size() - 1)]);
  }
}

template <auto M>
std::string get_levels(const hw::Topology& t, const Row& r) {
  std::vector<std::string> out;
  for (const hw::FabricLevel& level : t.levels) {
    out.push_back(text(number(level.*M), r.scale));
  }
  return util::join(out, ", ");
}

// --- tables ----------------------------------------------------------------

template <class Rec>
struct Field {
  Row row;
  void (*set)(Rec&, const Value&);
  /// The member as the row's text (records that are written back only).
  std::string (*get)(const Rec&, const Row&) = nullptr;
};

template <class Rec>
struct Table {
  const char* section;
  std::vector<Field<Rec>> fields;
  /// Defaults and checks that need several keys, run after the rows with
  /// the problems so far.
  void (*finish)(const Section&, Rec&, std::vector<Problem>&) = nullptr;
};

/// No problem sits at `key`.
bool ok(const std::vector<Problem>& out, const std::string& key) {
  return std::none_of(out.begin(), out.end(),
                      [&](const Problem& p) { return p.key == key; });
}

/// Every row read (the only problems are unknown keys).
bool rows_ok(const std::vector<Problem>& out) {
  return std::all_of(out.begin(), out.end(), [](const Problem& p) {
    return p.rule == RuleId::kConfigUnknownKey;
  });
}

/// Read `s` into `rec` row by row; every problem, in order.
template <class Rec>
std::vector<Problem> read(const Table<Rec>& t, const Section& s, Rec& rec) {
  std::vector<Problem> out;
  for (const auto& [key, text] : s) {
    if (std::none_of(t.fields.begin(), t.fields.end(),
                     [&](const Field<Rec>& f) { return key == f.row.key; })) {
      out.push_back({RuleId::kConfigUnknownKey, key,
                     "unknown key '" + key + "'"});
    }
  }
  for (const Field<Rec>& f : t.fields) {
    const std::string key = f.row.key;
    const auto it = s.find(key);
    if (it == s.end() && !f.row.fallback) {
      if (f.row.required) {
        out.push_back(
            {RuleId::kConfigMissingKey, key, "requires '" + key + "'"});
      }
      continue;
    }
    Value v;
    const auto why =
        read_value(f.row, it != s.end() ? it->second : f.row.fallback, v);
    if (why) {
      out.push_back({f.row.rule, key, "'" + key + "' " + *why});
    } else {
      f.set(rec, v);
    }
  }
  if (t.finish) t.finish(s, rec, out);
  return out;
}

template <class Rec>
Rec load(const Table<Rec>& t, const Section& s) {
  Rec rec{};
  const std::vector<Problem> problems = read(t, s, rec);
  if (!problems.empty()) {
    throw std::runtime_error("config: [" + std::string(t.section) + "] " +
                             problems.front().message);
  }
  return rec;
}

// Row modifiers, so each row reads on one or two lines.
Row required(Row r) { r.required = true; return r; }
Row scaled(double scale, Row r) { r.scale = scale; return r; }
Row ruled(RuleId rule, Row r) { r.rule = rule; return r; }
Row flagged(const char* flag, const char* help, Row r) {
  r.flag = flag;
  r.help = help;
  return r;
}

/// A member's value as the shortest text its row reads back to it.
std::string fallback_text(std::int64_t x, double) { return std::to_string(x); }
std::string fallback_text(double x, double scale) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, x / scale).ptr};
}
std::string fallback_text(const std::vector<std::int64_t>& xs, double) {
  std::vector<std::string> items;
  for (const std::int64_t x : xs) items.push_back(std::to_string(x));
  return util::join(items, ",");
}

/// The field of member M whose row falls back to the record's own default
/// for it, so the default is stated once (in the record) and `--help`
/// shows it.
template <auto M>
Field<typename MemberOf<decltype(M)>::Record> defaulted(Row r) {
  static const std::string text =
      fallback_text(typename MemberOf<decltype(M)>::Record{}.*M, r.scale);
  r.fallback = text.c_str();
  return {r, set<M>};
}

using Model = model::TransformerConfig;

void finish_model(const Section& s, Model& m, std::vector<Problem>& out) {
  if (!rows_ok(out) || s.count("preset")) return;
  if (!s.count("hidden")) m.hidden = 4 * m.embed;
  try {
    m.validate();
  } catch (const std::exception& e) {
    out.push_back({RuleId::kConfigValue, "", e.what()});
  }
}

const Table<Model> kModel{
    "model",
    {{{"name", kString, {}, "custom"}, set<&Model::name>},
     {flagged("l", "sequence length", {"seq_len", kInt, at_least(1)}),
      set<&Model::seq_len>},
     // Bounded so one block at the defaults (heads = kv_heads, hidden =
     // 4 x embed: 12 e^2 + 13 e parameters) fits int64; validate() checks
     // the products with the other keys.
     {flagged("e", "embedding width", {"embed", kInt, range(1, 8.7e8)}),
      set<&Model::embed>},
     {flagged("heads", "attention heads", {"heads", kInt, at_least(1)}),
      set<&Model::heads>},
     {flagged("depth", "transformer blocks", {"depth", kInt, at_least(1)}),
      set<&Model::depth>},
     {flagged("hidden", "MLP width (default 4 x --e)",
              {"hidden", kInt, at_least(1)}),
      set<&Model::hidden>},
     {flagged("kv-heads", "key/value heads, 0 = --heads",
              {"kv_heads", kInt, at_least(0)}),
      set<&Model::kv_heads>},
     {{"vocab", kInt, at_least(0)}, set<&Model::vocab>},
     {{"attention", kName, names("full|windowed|linear")},
      [](Model& m, const Value& v) {
        for (const auto kind :
             {model::AttentionKind::kFull, model::AttentionKind::kWindowed,
              model::AttentionKind::kLinear}) {
          if (model::to_string(kind) == v.text) m.attention = kind;
        }
      }},
     {flagged("window", "attention window", {"window", kInt, at_least(0)}),
      set<&Model::window>},
     {{"moe_experts", kInt, at_least(0)}, set<&Model::moe_experts>},
     {{"moe_top_k", kInt, at_least(1)}, set<&Model::moe_top_k>},
     // Last: a preset replaces whatever the rows above set.
     {{"preset", kName, names("a model preset", is_model_preset)},
      [](Model& m, const Value& v) { m = *model::preset_by_name(v.text); }}},
    finish_model};

using System = hw::SystemConfig;
using Gpu = hw::GpuSpec;
using Net = hw::NetworkSpec;

const Table<System> kSystem{
    "system",
    // First: the gpu preset every other row overrides.
    {{{"gpu", kName, names("a100|h200|b200", is_gpu), "b200"},
      [](System& s, const Value& v) {
        s = hw::make_system(*hw::generation_by_name(v.text), 8, 1024);
      }},
     {scaled(1e12, {"tensor_tflops", kReal}),
      set<&System::gpu, &Gpu::tensor_flops>},
     {scaled(1e12, {"vector_tflops", kReal}),
      set<&System::gpu, &Gpu::vector_flops>},
     {{"flops_latency", kReal}, set<&System::gpu, &Gpu::flops_latency>},
     {scaled(1e9, {"hbm_gb", kReal}), set<&System::gpu, &Gpu::hbm_capacity>},
     {scaled(1e9, {"hbm_gbs", kReal}), set<&System::gpu, &Gpu::hbm_bandwidth>},
     {scaled(1e9, {"nvs_gbs", kReal}), set<&System::net, &Net::nvs_bandwidth>},
     {{"nvs_latency", kReal}, set<&System::net, &Net::nvs_latency>},
     {scaled(1e9, {"ib_gbs", kReal}), set<&System::net, &Net::ib_bandwidth>},
     {{"ib_latency", kReal}, set<&System::net, &Net::ib_latency>},
     {{"nics_per_gpu", kReal}, set<&System::net, &Net::nics_per_gpu>},
     {{"efficiency", kReal}, set<&System::net, &Net::efficiency>},
     {{"nvs_domain", kInt}, set<&System::nvs_domain>},
     {{"n_gpus", kInt}, set<&System::n_gpus>},
     {scaled(1e9, {"host_gbs", kReal}), set<&System::host_bandwidth>},
     {{"enable_tree", kInt, range(0, 1)}, set<&System::net, &Net::enable_tree>},
     {{"pod_size", kInt}, set<&System::net, &Net::pod_size>},
     {{"oversubscription", kReal}, set<&System::net, &Net::oversubscription>}}};

using hw::Topology;
using Level = hw::FabricLevel;

extern const Table<Topology> kTopology;

/// Level count and per-level list lengths (TFPE-CFG-005), each at its key.
void finish_topology(const Section& s, Topology& t, std::vector<Problem>& out) {
  if (!ok(out, "levels")) return;
  const std::size_t n = t.levels.size();
  if (n > Topology::kMaxDepth) {
    out.push_back({RuleId::kConfigValue, "levels",
                   "'levels' names " + std::to_string(n) + " levels, at most " +
                       std::to_string(Topology::kMaxDepth) + " supported",
                   static_cast<double>(Topology::kMaxDepth),
                   static_cast<double>(n)});
  }
  for (const Field<Topology>& f : kTopology.fields) {
    const auto it = s.find(f.row.key);
    if (f.row.kind != kReals || it == s.end()) continue;
    const std::size_t got = util::split_list(it->second, ',', true).size();
    if (got != n) {
      out.push_back({RuleId::kConfigListLength, f.row.key,
                     std::string("'") + f.row.key + "' has " +
                         std::to_string(got) + " entries, 'levels' names " +
                         std::to_string(n) + " levels",
                     static_cast<double>(n), static_cast<double>(got)});
    }
  }
}

const Table<Topology> kTopology{
    "topology",
    // First: the level names every per-level list indexes.
    {{required({"levels", kStrings}),
      [](Topology& t, const Value& v) {
        t.levels.resize(v.items.size());
        for (std::size_t i = 0; i < v.items.size(); ++i) {
          t.levels[i].name = v.items[i];
        }
      },
      [](const Topology& t, const Row&) {
        std::vector<std::string> out;
        for (const Level& level : t.levels) out.push_back(level.name);
        return util::join(out, ", ");
      }},
     {{"fan_in", kReals, whole(), "1"},
      set_levels<&Level::fan_in>, get_levels<&Level::fan_in>},
     {scaled(1e-6, {"latency_us", kReals, at_least(0), "0"}),
      set_levels<&Level::latency>, get_levels<&Level::latency>},
     {required(scaled(1e9, {"gbs", kReals, above(0)})),
      set_levels<&Level::bandwidth>, get_levels<&Level::bandwidth>},
     {{"rails", kReals, above(0), "1"},
      set_levels<&Level::rails>, get_levels<&Level::rails>},
     {{"pod_size", kReals, whole(), "0"},
      set_levels<&Level::pod_size>, get_levels<&Level::pod_size>},
     {{"oversubscription", kReals, at_least(1), "1"},
      set_levels<&Level::oversubscription>,
      get_levels<&Level::oversubscription>},
     {{"efficiency", kReal, fraction()},
      set<&Topology::efficiency>, get<&Topology::efficiency>},
     {{"enable_tree", kInt, range(0, 1)},
      set<&Topology::enable_tree>, get<&Topology::enable_tree>},
     {{"enable_ll", kInt, range(0, 1)},
      set<&Topology::enable_ll>, get<&Topology::enable_ll>},
     {{"ll_latency_scale", kReal},
      set<&Topology::ll_latency_scale>, get<&Topology::ll_latency_scale>},
     {{"ll_bandwidth_scale", kReal},
      set<&Topology::ll_bandwidth_scale>, get<&Topology::ll_bandwidth_scale>},
     {{"enable_hierarchical", kInt, range(0, 1)},
      set<&Topology::enable_hierarchical>,
      get<&Topology::enable_hierarchical>}},
    finish_topology};

using Plan = LoadedPlan;
using Cfg = parallel::ParallelConfig;

const Table<Plan> kPlan{
    "plan",
    {{required({"strategy", kName, names("1d|2d|summa", is_strategy)}),
      [](Plan& p, const Value& v) {
        p.cfg.strategy = *parallel::strategy_by_name(v.text);
      }},
     {required({"n1", kInt, at_least(1)}), set<&Plan::cfg, &Cfg::n1>},
     {{"n2", kInt, at_least(1)}, set<&Plan::cfg, &Cfg::n2>},
     {required({"np", kInt, at_least(1)}), set<&Plan::cfg, &Cfg::np>},
     {required({"nd", kInt, at_least(1)}), set<&Plan::cfg, &Cfg::nd>},
     {required({"microbatches", kInt, at_least(1)}),
      set<&Plan::cfg, &Cfg::microbatches>},
     {{"nb", kInt, at_least(1)}, set<&Plan::cfg, &Cfg::nb>},
     {{"interleave", kInt, at_least(1)}, set<&Plan::cfg, &Cfg::interleave>},
     {{"zero", kName, names("1|3")},
      [](Plan& p, const Value& v) {
        if (v.text == "3") p.cfg.zero = parallel::ZeroStage::kWeights;
      }},
     {{"nvs1", kInt, at_least(1)}, set<&Plan::cfg, &Cfg::nvs1>},
     {{"nvs2", kInt, at_least(1)}, set<&Plan::cfg, &Cfg::nvs2>},
     {{"nvsp", kInt, at_least(1)}, set<&Plan::cfg, &Cfg::nvsp>},
     {{"nvsd", kInt, at_least(1)}, set<&Plan::cfg, &Cfg::nvsd>},
     {required({"global_batch", kInt, at_least(1)}),
      set<&Plan::global_batch>}}};

using Sweep = SweepSpec;

// The axes in spec nesting order (the CSV's column order). `tfpe codesign`
// reads the record as its hardware grid, with the row flags over it.
const Table<Sweep> kSweep{
    "sweep",
    {{{"model", kNames, names("a model preset", is_model_preset), "gpt3-1t"},
      set<&Sweep::model>},
     {flagged("gpu", "[sweep] GPU generations",
              {"gpu", kNames, names("a100|h200|b200", is_gpu), "b200"}),
      set<&Sweep::gpu>},
     {flagged("nvs", "[sweep] NVS-domain sizes",
              {"nvs", kInts, at_least(1), "8"}),
      set<&Sweep::nvs>},
     {{"oversub", kReals, at_least(1), "1"}, set<&Sweep::oversub>},
     {flagged("gpus", "[sweep] total GPU counts",
              {"gpus", kInts, at_least(1), "1024"}),
      set<&Sweep::gpus>},
     {flagged("strategy", "[sweep] tensor-parallel strategies",
              {"strategy", kNames, names("1d|2d|summa", is_strategy), "1d"}),
      set<&Sweep::strategy>},
     {flagged("batch", "[sweep] global batches",
              {"batch", kInts, at_least(1), "4096"}),
      set<&Sweep::batch>},
     {{"leaf", kInt, at_least(1), "64"}, set<&Sweep::leaf>},
     {{"output", kString, {}, "sweep.csv"}, set<&Sweep::output>}}};

using Family = model::ShapeFamilyOptions;

/// Range order at the lower key (TFPE-CODESIGN-002), then the
/// model::shape_family probe, so a bad section fails at load time.
void finish_codesign(const Section& s, Family& o, std::vector<Problem>& out) {
  const auto order = [&](const std::string& lo, const std::string& hi,
                         double min, double max) {
    if (!ok(out, lo) || !ok(out, hi) || min <= max) return;
    out.push_back({RuleId::kCodesignAxis, s.count(lo) ? lo : hi,
                   "'" + lo + "' exceeds '" + hi + "'", max, min});
  };
  order("depth_min", "depth_max", static_cast<double>(o.depth_min),
        static_cast<double>(o.depth_max));
  order("heads_min", "heads_max", static_cast<double>(o.heads_min),
        static_cast<double>(o.heads_max));
  order("aspect_min", "aspect_max", o.aspect_min, o.aspect_max);
  if (!rows_ok(out)) return;
  try {
    // Validation runs before any shape is generated, so any base will do.
    (void)model::shape_family(model::gpt3_175b(), o);
  } catch (const std::invalid_argument& e) {
    out.push_back({RuleId::kCodesignAxis, "", e.what()});
  }
}

constexpr RuleId kBudget = RuleId::kCodesignBudget;
constexpr RuleId kAxis = RuleId::kCodesignAxis;

const Table<Family> kCodesign{
    "codesign",
    // target_params_b is in billions; 0 = the [model]'s own total.
    {{flagged("target-params",
              "parameter budget [billions], 0 = the base model's",
              ruled(kBudget, scaled(1e9, {"target_params_b", kReal,
                                          range(0, kInt64Real / 1e9)}))),
      [](Family& o, const Value& v) {
        o.target_params = static_cast<std::int64_t>(v.reals.front());
      }},
     defaulted<&Family::tolerance>(
         flagged("tolerance", "relative band around the budget",
                 ruled(kBudget, {"tolerance", kReal, open_band()}))),
     {ruled(kAxis, {"depths", kInts, at_least(1)}), set<&Family::depths>},
     {ruled(kAxis, {"depth_min", kInt, at_least(1)}), set<&Family::depth_min>},
     {ruled(kAxis, {"depth_max", kInt, at_least(1)}), set<&Family::depth_max>},
     {ruled(kAxis, {"depth_step", kInt, at_least(1)}),
      set<&Family::depth_step>},
     {ruled(kAxis, {"heads", kInts, at_least(1)}), set<&Family::heads>},
     {ruled(kAxis, {"heads_min", kInt, at_least(1)}), set<&Family::heads_min>},
     {ruled(kAxis, {"heads_max", kInt, at_least(1)}), set<&Family::heads_max>},
     {ruled(kAxis, {"heads_step", kInt, at_least(1)}),
      set<&Family::heads_step>},
     {ruled(kAxis, {"head_dims", kInts, at_least(1)}), set<&Family::head_dims>},
     {ruled(kAxis, {"aspect_min", kReal, above(0)}), set<&Family::aspect_min>},
     {ruled(kAxis, {"aspect_max", kReal, above(0)}), set<&Family::aspect_max>},
     {ruled(kAxis, {"hidden_multiple", kInt, at_least(1)}),
      set<&Family::hidden_multiple>},
     {ruled(kAxis, {"kv_heads", kInts, at_least(0)}), set<&Family::kv_heads>},
     {ruled(kAxis, {"moe_experts", kInts, at_least(0)}),
      set<&Family::moe_experts>}},
    finish_codesign};

using Serving = core::ServingSpec;

const Table<Serving> kServing{
    "serving",
    {defaulted<&Serving::prompt_len>(
         flagged("prompt", "input tokens per request",
                 {"prompt_len", kInt, at_least(1)})),
     defaulted<&Serving::output_len>(
         flagged("output", "generated tokens per request",
                 {"output_len", kInt, at_least(1)})),
     defaulted<&Serving::tp>(
         flagged("tp", "tensor-parallel widths", {"tp", kInts, at_least(1)})),
     defaulted<&Serving::pp>(
         flagged("pp", "pipeline depths", {"pp", kInts, at_least(1)})),
     defaulted<&Serving::batch>(
         flagged("batch", "requested batches", {"batch", kInts, at_least(1)})),
     defaulted<&Serving::kv_cap_fraction>(
         flagged("kv-cap", "HBM fraction for KV cache + weights",
                 {"kv_cap_fraction", kReal, fraction()})),
     {{"max_batch", kInt, at_least(0)}, set<&Serving::max_batch>}}};

template <class Rec>
Schema schema_of(const Table<Rec>& t) {
  Schema out{t.section, {}, [&t](const Section& s) {
               Rec rec{};
               return read(t, s, rec);
             }};
  for (const Field<Rec>& f : t.fields) out.rows.push_back(f.row);
  return out;
}

}  // namespace

const std::vector<Schema>& schemas() {
  static const std::vector<Schema> all{
      schema_of(kModel), schema_of(kSystem),   schema_of(kTopology),
      schema_of(kPlan),  schema_of(kSweep),    schema_of(kCodesign),
      schema_of(kServing)};
  return all;
}

const Schema* find_schema(const std::string& section) {
  for (const Schema& s : schemas()) {
    if (s.section == section) return &s;
  }
  return nullptr;
}

std::string describe(const Row& r) {
  const Domain& d = r.domain;
  std::ostringstream out;
  const Kind k = entry_kind(r.kind);
  if (k == kString || k == kBool) return "";
  if (k == kName) {
    out << "one of " << d.names;
  } else {
    out << (k == kInt ? "an integer"
                      : d.integral ? "a whole number" : "a finite number");
    if (d.lo > -kInf && d.hi < kInf) {
      out << " in " << (d.lo_open ? '(' : '[') << d.lo << ", " << d.hi
          << (d.hi_open ? ')' : ']');
    } else if (d.lo > -kInf) {
      out << (d.lo_open ? " > " : " >= ") << d.lo;
    }
  }
  if (is_list(r.kind)) out << " per entry";
  return out.str();
}

Value read_flag(const Row& r, const std::string& text) {
  Value v;
  if (const auto why = read_value(r, text, v)) {
    throw std::invalid_argument(
        "flag --" + std::string(r.flag) + " " + *why + " (" +
        std::string(analysis::rule_info(r.rule).code) + ")");
  }
  return v;
}

Section topology_to_section(const hw::Topology& topo) {
  Section s;
  for (const Field<Topology>& f : kTopology.fields) {
    s[f.row.key] = f.get(topo, f.row);
  }
  return s;
}

Model model_from_section(const Section& s) { return load(kModel, s); }
System system_from_section(const Section& s) { return load(kSystem, s); }
Topology topology_from_section(const Section& s) { return load(kTopology, s); }
Family codesign_from_section(const Section& s) { return load(kCodesign, s); }
Serving serving_from_section(const Section& s) { return load(kServing, s); }
SweepSpec sweep_from_section(const Section& s) { return load(kSweep, s); }
LoadedPlan plan_from_section(const Section& s) { return load(kPlan, s); }

}  // namespace tfpe::io
