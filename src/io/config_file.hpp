#pragma once
// Plain-text configuration files for custom models and systems, so users
// can describe their own foundation model / cluster without recompiling:
//
//   # comments and blank lines are ignored
//   [model]
//   name = my-foundation-model
//   seq_len = 16384
//   embed = 8192
//   heads = 64
//   depth = 32
//   hidden = 32768        # optional, default 4*embed
//   kv_heads = 8          # optional (GQA)
//   attention = windowed  # full | windowed | linear
//   window = 4096
//   moe_experts = 64      # optional
//   moe_top_k = 2
//
//   [system]
//   gpu = b200            # preset, or give the fields below
//   tensor_tflops = 2500
//   vector_tflops = 339
//   hbm_gb = 192
//   hbm_gbs = 8000
//   nvs_gbs = 900
//   ib_gbs = 100
//   nvs_domain = 8
//   n_gpus = 4096
//
//   ...
//
// plus [topology], [codesign] and [serving] (docs/API.md, `tfpe::io`). Each
// section is a record whose keys, domains, defaults and units are the rows
// of its table in io/schema.cpp.
//
// Unknown keys are errors (typo protection). Every section may be absent.
// A [topology] section is attached to the [system] as its resolved fabric
// (hw::SystemConfig::fabric); per-level lists must all have one entry per
// named level.

#include <istream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/workload.hpp"
#include "hw/system.hpp"
#include "model/shape_family.hpp"
#include "model/transformer.hpp"

namespace tfpe::io {

using Section = std::map<std::string, std::string>;
using ConfigSections = std::map<std::string, Section>;

/// Parse "[section]" / "key = value" syntax. Throws std::runtime_error with
/// a line number on malformed input.
ConfigSections parse_config(std::istream& in);

/// 1-based source lines of one section: the header and each key's line
/// (last occurrence when a key repeats, matching the parsed value).
struct SectionLocations {
  int line = 0;                    ///< "[section]" header line; 0 = implicit.
  std::map<std::string, int> keys;
};
using ConfigLocations = std::map<std::string, SectionLocations>;

/// As above, additionally recording where each section and key was defined
/// (for line-accurate schema diagnostics; `locations` may be null).
ConfigSections parse_config(std::istream& in, ConfigLocations* locations);

// The *_from_section loaders (io/schema.cpp) throw std::runtime_error on
// the first problem the schema lint reports for their section.

/// Build a validated TransformerConfig from a [model] section.
model::TransformerConfig model_from_section(const Section& s);

/// Build a SystemConfig from a [system] section. Preset fields may be
/// overridden by explicit values.
hw::SystemConfig system_from_section(const Section& s);

/// Build a fabric Topology from a [topology] section.
hw::Topology topology_from_section(const Section& s);

/// Serialize a fabric back into [topology]-section form; round-trips
/// exactly through topology_from_section.
Section topology_to_section(const hw::Topology& topo);

/// Build shape-family options from a [codesign] section (target_params_b is
/// given in BILLIONS of parameters).
model::ShapeFamilyOptions codesign_from_section(const Section& s);

/// Build a serve-plan grid from a [serving] section.
core::ServingSpec serving_from_section(const Section& s);

/// A [sweep] section: its axes in spec nesting order, each value as written
/// (the CSV echoes them), defaults filled in.
struct SweepSpec {
  std::vector<std::string> model, gpu, nvs, oversub, gpus, strategy, batch;
  std::int64_t leaf = 0;
  std::string output;
};

SweepSpec sweep_from_section(const Section& s);

struct LoadedConfig {
  ConfigSections sections;  ///< The file as parsed.
  std::optional<model::TransformerConfig> model;
  std::optional<hw::SystemConfig> system;
  /// Parsed [topology], also attached to system->fabric when both exist.
  std::optional<hw::Topology> topology;
};

/// Parse a whole file; throws std::runtime_error if it cannot be read.
LoadedConfig load_config_file(const std::string& path);

}  // namespace tfpe::io
