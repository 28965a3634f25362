// Checkpoint format contract (nn/serialize v2 binary).
//
// What is pinned here:
//  * save/load round-trips are BITWISE — every weight byte identical —
//    across every MlpConfig shape in the scenario registry (including the
//    Fourier-encoded ones, whose frequency matrices ride in the header);
//  * malformed input (wrong magic, unsupported version, truncation, any
//    single flipped byte) is a std::runtime_error, never UB: the FNV-1a64
//    trailer covers the whole body.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "pinn/scenario.hpp"
#include "util/rng.hpp"

namespace {

using sgm::nn::Mlp;
using sgm::nn::MlpConfig;
using sgm::tensor::Matrix;

void expect_bitwise_equal_params(const Mlp& a, const Mlp& b,
                                 const std::string& label) {
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size()) << label;
  for (std::size_t t = 0; t < pa.size(); ++t) {
    ASSERT_TRUE(pa[t]->same_shape(*pb[t])) << label << " tensor " << t;
    EXPECT_EQ(std::memcmp(pa[t]->data(), pb[t]->data(),
                          pa[t]->size() * sizeof(double)),
              0)
        << label << ": tensor " << t << " differs bitwise";
  }
}

Matrix probe_batch(std::size_t n, std::size_t dim, std::uint64_t seed) {
  sgm::util::Rng rng(seed);
  Matrix x(n, dim);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform();
  return x;
}

std::string serialized_v2(const Mlp& net, const sgm::nn::CheckpointMeta& meta) {
  std::ostringstream out(std::ios::binary);
  sgm::nn::save_model(net, out, meta);
  return out.str();
}

// ------------------------------------------------ registry-shape roundtrip --

class ScenarioShapes : public testing::TestWithParam<std::string> {};

TEST_P(ScenarioShapes, RoundTripsBitwise) {
  const auto cfg = sgm::pinn::ScenarioRegistry::instance().make(
      GetParam(), sgm::pinn::ScenarioScale::kSmoke);
  sgm::util::Rng rng(cfg.net_seed);
  Mlp original(cfg.net, rng);

  // Parameter-only API into a differently-initialized same-shape net.
  Mlp reloaded(cfg.net, rng);
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  sgm::nn::save_parameters(original, stream);
  sgm::nn::load_parameters(reloaded, stream);
  expect_bitwise_equal_params(original, reloaded, GetParam() + "/params");

  // Full-model API: architecture reconstructed from the header alone.
  sgm::nn::CheckpointMeta meta;
  meta.scenario = GetParam();
  meta.model_version = 7;
  std::istringstream in(serialized_v2(original, meta), std::ios::binary);
  const sgm::nn::LoadedModel loaded = sgm::nn::load_model(in);
  EXPECT_EQ(loaded.info.meta.scenario, GetParam());
  EXPECT_EQ(loaded.info.meta.model_version, 7u);
  EXPECT_EQ(loaded.info.format_version, sgm::nn::kCheckpointFormatVersion);
  EXPECT_NE(loaded.info.checksum, 0u);
  expect_bitwise_equal_params(original, *loaded.model, GetParam() + "/model");

  // The reconstructed model (activation singleton, rebuilt encoding) must
  // predict bitwise identically, not just share weights.
  const Matrix x = probe_batch(16, cfg.net.input_dim, 99);
  const Matrix ya = original.forward(x);
  const Matrix yb = loaded.model->forward(x);
  ASSERT_TRUE(ya.same_shape(yb));
  EXPECT_EQ(
      std::memcmp(ya.data(), yb.data(), ya.size() * sizeof(double)), 0)
      << GetParam() << ": reloaded model predicts differently";
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, ScenarioShapes,
    testing::ValuesIn(sgm::pinn::ScenarioRegistry::instance().names()),
    [](const testing::TestParamInfo<std::string>& info) { return info.param; });

// ------------------------------------------------------------- error paths --

MlpConfig small_config() {
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 1;
  cfg.width = 8;
  cfg.depth = 2;
  return cfg;
}

TEST(SerializeErrors, UnsupportedFormatVersionIsAnError) {
  sgm::util::Rng rng(1);
  Mlp net(small_config(), rng);
  std::string raw = serialized_v2(net, {});
  raw[8] = 3;  // format-version field (little-endian u32 after the magic)
  std::istringstream in(raw, std::ios::binary);
  EXPECT_THROW(sgm::nn::load_model(in), std::runtime_error);
  std::istringstream in2(raw, std::ios::binary);
  Mlp target(small_config(), rng);
  EXPECT_THROW(sgm::nn::load_parameters(target, in2), std::runtime_error);
}

TEST(SerializeErrors, TruncationIsAnError) {
  sgm::util::Rng rng(2);
  Mlp net(small_config(), rng);
  const std::string raw = serialized_v2(net, {});
  // Every truncation point — mid-magic, mid-header, mid-tensor, mid-trailer
  // — must be a clean error.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{11}, std::size_t{40},
        raw.size() / 2, raw.size() - 9, raw.size() - 1}) {
    std::istringstream in(raw.substr(0, keep), std::ios::binary);
    EXPECT_THROW(sgm::nn::load_model(in), std::runtime_error)
        << "kept " << keep << " of " << raw.size() << " bytes";
  }
}

TEST(SerializeErrors, ChecksumDetectsEverySingleFlippedByte) {
  sgm::util::Rng rng(3);
  Mlp net(small_config(), rng);
  const std::string raw = serialized_v2(net, {});
  // Flip one byte at a time across the whole file (magic, header, weights,
  // trailer); every corruption must surface as an exception — silent
  // acceptance of a corrupt model is the one unacceptable outcome.
  for (std::size_t off = 0; off < raw.size(); ++off) {
    std::string corrupt = raw;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x20);
    std::istringstream in(corrupt, std::ios::binary);
    EXPECT_THROW(sgm::nn::load_model(in), std::exception)
        << "flipped byte at offset " << off;
  }
}

TEST(SerializeErrors, ShapeMismatchIsAnError) {
  sgm::util::Rng rng(4);
  Mlp net(small_config(), rng);
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  sgm::nn::save_parameters(net, stream);
  MlpConfig other = small_config();
  other.width = 16;
  Mlp wrong(other, rng);
  EXPECT_THROW(sgm::nn::load_parameters(wrong, stream), std::runtime_error);
}

TEST(SerializeErrors, GarbageIsAnError) {
  Mlp net(small_config(), *std::make_unique<sgm::util::Rng>(5));
  std::istringstream in("not a checkpoint at all", std::ios::binary);
  EXPECT_THROW(sgm::nn::load_parameters(net, in), std::runtime_error);
  std::istringstream in2("not a checkpoint at all", std::ios::binary);
  EXPECT_THROW(sgm::nn::load_model(in2), std::runtime_error);
}

}  // namespace
