// The library surface perfbench/ compiles against. perfbench is its own
// CMake package, so only its build would notice a reordered config field
// (C++20 rejects designators out of declaration order) or a changed
// signature; this file repeats both and fails the tier-1 build instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "phy/channel.h"
#include "phy/far_field.h"
#include "phy/interference.h"
#include "sim/engine.h"
#include "svc/exec.h"

namespace udwn {
namespace {

// perfbench engine_config() and replay(), in their field order.
constexpr EngineConfig kEngine{.slots_per_round = 2,
                               .seed = 7,
                               .threads = 4,
                               .far_field_eps = 0.25,
                               .far_field_cell_factor = 0.5,
                               .obs = nullptr};
constexpr SlotWorkspaceConfig kWorkspace{
    .far_field_eps = 0.25, .far_field_cell_factor = 0.5, .threads = 4};

// The replay's calls, as it makes them (default arguments are not part of
// a function's type).
using Txs = std::span<const NodeId>;
static_assert(std::is_same_v<decltype(&interference_field_soa),
                             void (*)(const GainTable&, Txs,
                                      std::vector<const double*>&,
                                      std::vector<double>&, TaskPool*)>);
static_assert(std::is_same_v<decltype(&GainTable::ensure_rows),
                             bool (GainTable::*)(Txs, TaskPool*)>);
static_assert(std::is_same_v<
              decltype(&FarFieldWorkspace::field_into),
              bool (FarFieldWorkspace::*)(const EuclideanMetric&,
                                          const PathLoss&, Txs,
                                          const FarFieldParams&,
                                          std::vector<double>&, TaskPool*)>);
static_assert(std::is_same_v<decltype(&far_field_params),
                             std::optional<FarFieldParams> (*)(
                                 double, double, const PathLoss&)>);
static_assert(std::is_same_v<
              decltype(std::declval<SlotWorkspace&>().cache().gains()),
              GainTable*>);
static_assert(std::is_same_v<decltype(std::declval<SlotWorkspace&>().pool()),
                             TaskPool*>);

// The svc workload: a default ExecConfig (16 MiB gain budget) with
// round_bound and obs assigned, passed to run_trial.
constexpr svc::ExecConfig kExec{.round_bound = 1, .obs = nullptr};
static_assert(kExec.gain_budget_bytes == std::size_t{16} << 20);
static_assert(std::is_same_v<decltype(&svc::run_trial),
                             svc::TrialRecord (*)(const svc::RunRequest&,
                                                  const svc::ExecConfig&,
                                                  std::uint64_t,
                                                  std::uint32_t)>);

// perfbench sets no gain or cache field, so it measures the library
// defaults; moving one would change what it measures without a diff in it.
TEST(PerfbenchContract, InitializersLeaveTheGainAndCacheDefaults) {
  for (const GainTable::Config& gains : {kEngine.gains, kWorkspace.gains}) {
    EXPECT_EQ(gains.tile_cols, 4096u);
    EXPECT_EQ(gains.budget_bytes, std::size_t{128} << 20);
  }
  EXPECT_TRUE(kEngine.cache_topology);
  EXPECT_TRUE(kWorkspace.cache_topology);
}

}  // namespace
}  // namespace udwn
