// Shared fixtures and builders for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/scenario.h"
#include "common/rng.h"
#include "metric/geometry.h"
#include "topo/generators.h"

namespace udwn::test {

/// Default scenario config used across tests (SINR, R = 1, ε = 0.3, ζ = 3).
inline ScenarioConfig default_config() { return ScenarioConfig{}; }

inline ScenarioConfig config_for(ModelKind kind) {
  ScenarioConfig cfg;
  cfg.model = kind;
  return cfg;
}

/// Small deterministic deployment: n nodes uniform in [0, extent]².
inline std::vector<Vec2> random_points(std::size_t n, double extent,
                                       std::uint64_t seed) {
  Rng rng(seed);
  return uniform_square(n, extent, rng);
}

/// Two nodes at the given separation, useful for single-link physics tests.
inline std::vector<Vec2> pair_at(double separation) {
  return {{0, 0}, {separation, 0}};
}

/// All model kinds, for parameterized pan-model tests.
inline std::vector<ModelKind> all_models() {
  return {ModelKind::Sinr, ModelKind::Udg, ModelKind::Qudg,
          ModelKind::Protocol, ModelKind::SuccClearOnly};
}

inline const char* model_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::Sinr: return "Sinr";
    case ModelKind::Udg: return "Udg";
    case ModelKind::Qudg: return "Qudg";
    case ModelKind::Protocol: return "Protocol";
    case ModelKind::SuccClearOnly: return "SuccClearOnly";
  }
  return "?";
}

/// Every outcome field compared with exact equality: interference entries
/// are doubles and must match the brute-force reference to the last bit,
/// not approximately.
inline void expect_outcomes_identical(const SlotOutcome& ref,
                                      const SlotOutcome& got,
                                      const char* label = "") {
  SCOPED_TRACE(label);
  ASSERT_EQ(ref.transmitters.size(), got.transmitters.size());
  for (std::size_t i = 0; i < ref.transmitters.size(); ++i)
    EXPECT_EQ(ref.transmitters[i], got.transmitters[i]);
  ASSERT_EQ(ref.interference.size(), got.interference.size());
  for (std::size_t v = 0; v < ref.interference.size(); ++v)
    EXPECT_EQ(ref.interference[v], got.interference[v]) << "node " << v;
  for (std::size_t v = 0; v < ref.decoded_from.size(); ++v)
    EXPECT_EQ(ref.decoded_from[v], got.decoded_from[v]) << "node " << v;
  for (std::size_t v = 0; v < ref.mass_delivered.size(); ++v)
    EXPECT_EQ(ref.mass_delivered[v], got.mass_delivered[v]) << "node " << v;
  for (std::size_t v = 0; v < ref.clear.size(); ++v)
    EXPECT_EQ(ref.clear[v], got.clear[v]) << "node " << v;
}

}  // namespace udwn::test
