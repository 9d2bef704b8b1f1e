// Tests for the model/system configuration-file loader.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/config_file.hpp"

namespace tfpe::io {
namespace {

ConfigSections parse(const std::string& text) {
  std::istringstream in(text);
  return parse_config(in);
}

TEST(ParseConfig, SectionsAndComments) {
  const auto s = parse(
      "# header comment\n"
      "[model]\n"
      "seq_len = 2048   # trailing comment\n"
      "\n"
      "[system]\n"
      "gpu=b200\n");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.at("model").at("seq_len"), "2048");
  EXPECT_EQ(s.at("system").at("gpu"), "b200");
}

TEST(ParseConfig, RejectsMalformedLines) {
  EXPECT_THROW(parse("[model\n"), std::runtime_error);
  EXPECT_THROW(parse("[model]\nnot a kv pair\n"), std::runtime_error);
  EXPECT_THROW(parse("[model]\n= value\n"), std::runtime_error);
}

TEST(ModelSection, BuildsCustomModel) {
  const auto s = parse(
      "[model]\n"
      "name = my-model\n"
      "seq_len = 4096\n"
      "embed = 1024\n"
      "heads = 16\n"
      "depth = 12\n"
      "kv_heads = 4\n"
      "attention = windowed\n"
      "window = 512\n");
  const auto m = model_from_section(s.at("model"));
  EXPECT_EQ(m.name, "my-model");
  EXPECT_EQ(m.hidden, 4096);  // default 4e
  EXPECT_EQ(m.kv_heads, 4);
  EXPECT_EQ(m.attention, model::AttentionKind::kWindowed);
  EXPECT_EQ(m.attended_len(), 512);
}

TEST(ModelSection, SupportsPresets) {
  const auto s = parse("[model]\npreset = gpt3-1t\n");
  const auto m = model_from_section(s.at("model"));
  EXPECT_EQ(m.name, "GPT3-1T");
  EXPECT_EQ(m.embed, 25600);
}

TEST(ModelSection, RejectsUnknownKeyAndBadValues) {
  EXPECT_THROW(model_from_section(parse("[model]\nseqlen = 4\n").at("model")),
               std::runtime_error);
  EXPECT_THROW(
      model_from_section(parse("[model]\npreset = nope\n").at("model")),
      std::runtime_error);
  EXPECT_THROW(
      model_from_section(
          parse("[model]\nseq_len = 4\nembed = 8\nheads = 3\ndepth = 1\n")
              .at("model")),
      std::runtime_error);  // heads must divide embed
  EXPECT_THROW(
      model_from_section(parse("[model]\nseq_len = x\n").at("model")),
      std::exception);
}

TEST(SystemSection, PresetWithOverrides) {
  const auto s = parse(
      "[system]\n"
      "gpu = a100\n"
      "hbm_gb = 40\n"
      "nvs_domain = 4\n"
      "n_gpus = 512\n"
      "enable_tree = 1\n");
  const auto sys = system_from_section(s.at("system"));
  EXPECT_EQ(sys.gpu.name, "A100");
  EXPECT_DOUBLE_EQ(sys.gpu.hbm_capacity.value(), 40e9);
  EXPECT_DOUBLE_EQ(sys.gpu.tensor_flops.value(), 312e12);  // preset retained
  EXPECT_EQ(sys.nvs_domain, 4);
  EXPECT_EQ(sys.n_gpus, 512);
  EXPECT_TRUE(sys.net.enable_tree);
}

TEST(SystemSection, FullyCustomHardware) {
  const auto s = parse(
      "[system]\n"
      "tensor_tflops = 1000\n"
      "vector_tflops = 100\n"
      "hbm_gb = 256\n"
      "hbm_gbs = 6000\n"
      "nvs_gbs = 600\n"
      "ib_gbs = 50\n"
      "efficiency = 0.8\n"
      "n_gpus = 64\n");
  const auto sys = system_from_section(s.at("system"));
  EXPECT_DOUBLE_EQ(sys.gpu.tensor_flops.value(), 1000e12);
  EXPECT_DOUBLE_EQ(sys.gpu.hbm_capacity.value(), 256e9);
  EXPECT_DOUBLE_EQ(sys.net.efficiency, 0.8);
}

TEST(SystemSection, RejectsUnknownGpuAndKeys) {
  EXPECT_THROW(
      system_from_section(parse("[system]\ngpu = v100\n").at("system")),
      std::runtime_error);
  EXPECT_THROW(
      system_from_section(parse("[system]\nhbm = 80\n").at("system")),
      std::runtime_error);
}

TEST(LoadConfigFile, RoundTrip) {
  const std::string path = "tfpe_test_config.tfpe";
  {
    std::ofstream out(path);
    out << "[model]\npreset = gpt3-175b\n\n"
        << "[system]\ngpu = h200\nn_gpus = 256\n";
  }
  const LoadedConfig loaded = load_config_file(path);
  ASSERT_TRUE(loaded.model.has_value());
  ASSERT_TRUE(loaded.system.has_value());
  EXPECT_EQ(loaded.model->name, "GPT3-175B");
  EXPECT_EQ(loaded.system->n_gpus, 256);
  std::remove(path.c_str());
  EXPECT_THROW(load_config_file("does_not_exist.tfpe"), std::runtime_error);
}

TEST(CodesignSection, BuildsShapeFamilyOptions) {
  Section s;
  s["target_params_b"] = "1000";
  s["tolerance"] = "0.03";
  s["depths"] = "64, 96, 128";
  s["heads"] = "96, 128";
  s["head_dims"] = "128, 160";
  s["aspect_min"] = "1.5";
  s["aspect_max"] = "7";
  s["hidden_multiple"] = "256";
  s["kv_heads"] = "0, 8";
  s["moe_experts"] = "0";
  const model::ShapeFamilyOptions opts = codesign_from_section(s);
  EXPECT_EQ(opts.target_params, 1000000000000);
  EXPECT_DOUBLE_EQ(opts.tolerance, 0.03);
  EXPECT_EQ(opts.depths, (std::vector<std::int64_t>{64, 96, 128}));
  EXPECT_EQ(opts.heads, (std::vector<std::int64_t>{96, 128}));
  EXPECT_EQ(opts.head_dims, (std::vector<std::int64_t>{128, 160}));
  EXPECT_DOUBLE_EQ(opts.aspect_min, 1.5);
  EXPECT_DOUBLE_EQ(opts.aspect_max, 7.0);
  EXPECT_EQ(opts.hidden_multiple, 256);
  EXPECT_EQ(opts.kv_heads, (std::vector<std::int64_t>{0, 8}));

  // Range axes and defaults survive when the lists are absent.
  Section r;
  r["depth_min"] = "32";
  r["depth_max"] = "64";
  r["depth_step"] = "32";
  const model::ShapeFamilyOptions ranged = codesign_from_section(r);
  EXPECT_EQ(ranged.target_params, 0);
  EXPECT_EQ(ranged.depth_min, 32);
  EXPECT_EQ(ranged.depth_max, 64);
  EXPECT_TRUE(ranged.depths.empty());
}

TEST(CodesignSection, RejectsBadValuesAndUnknownKeys) {
  Section s;
  s["target_params_b"] = "-1";
  EXPECT_THROW(codesign_from_section(s), std::runtime_error);
  s.clear();
  s["tolerance"] = "1.5";
  EXPECT_THROW(codesign_from_section(s), std::runtime_error);
  s.clear();
  s["depths"] = "64, zero";
  EXPECT_THROW(codesign_from_section(s), std::runtime_error);
  s.clear();
  s["depths"] = "0";
  EXPECT_THROW(codesign_from_section(s), std::runtime_error);
  s.clear();
  s["depth_planes"] = "4";
  EXPECT_THROW(codesign_from_section(s), std::runtime_error);
}

// A [codesign] section in a config file loads as a raw section beside the
// typed model; codesign_from_section reads it from there.
TEST(LoadConfigFile, ParsesCodesignSection) {
  const std::string path = "tfpe_test_codesign.tfpe";
  {
    std::ofstream out(path);
    out << "[model]\npreset = gpt3-1t\n\n"
        << "[codesign]\ntolerance = 0.04\ndepths = 96, 128\n";
  }
  const LoadedConfig loaded = load_config_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.model.has_value());
  ASSERT_EQ(loaded.sections.count("codesign"), 1u);
  const model::ShapeFamilyOptions parsed =
      codesign_from_section(loaded.sections.at("codesign"));
  EXPECT_DOUBLE_EQ(parsed.tolerance, 0.04);
  EXPECT_EQ(parsed.depths, (std::vector<std::int64_t>{96, 128}));
}

}  // namespace
}  // namespace tfpe::io
