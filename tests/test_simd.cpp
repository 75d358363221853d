// Vector-lane tests: the shared column accumulator behind both gain-table
// field paths (interference_field_soa and the block-sharded field) must be
// bitwise identical — exact ==, never NEAR — to one add at a time per
// listener, on ragged column windows where vector bodies and scalar tails
// meet. Also covers the host ISA probe recorded with benchmark results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/cpu_features.h"
#include "common/rng.h"
#include "phy/interference.h"

namespace udwn {
namespace {

TEST(SimdKernel, AccumulateMatchesScalarOnRaggedWindows) {
  // Synthetic rows with full-entropy doubles: any reassociation or width
  // mishandling shows up as a last-bit mismatch somewhere in this sweep.
  constexpr std::size_t kCols = 37;  // not a multiple of any lane width
  Rng rng(2024);
  std::vector<std::vector<double>> storage;
  std::vector<const double*> rows;
  for (std::size_t i = 0; i < 9; ++i) {
    std::vector<double> row(kCols);
    for (double& x : row) x = rng.uniform() * 1e3 + 1e-9;
    storage.push_back(std::move(row));
  }
  for (const auto& row : storage) rows.push_back(row.data());
  // The same rows at stride 3, the layout the field paths pass (one entry
  // per transmitter and block); the gaps hold rows the sweep must skip.
  std::vector<const double*> strided(rows.size() * 3, storage.back().data());
  for (std::size_t i = 0; i < rows.size(); ++i) strided[i * 3] = rows[i];

  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                            std::size_t{3}, std::size_t{4}, std::size_t{5},
                            std::size_t{8}, std::size_t{9}}) {
    for (std::size_t jlo : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{8}}) {
      for (std::size_t jhi : {jlo, jlo + 1, jlo + 2, jlo + 5, kCols}) {
        // Reference: each column adds the rows one at a time, in order.
        std::vector<double> want(kCols, 0.5);
        for (std::size_t j = jlo; j < jhi; ++j)
          for (std::size_t i = 0; i < count; ++i) want[j] += rows[i][j];
        for (const std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
          std::vector<double> got(kCols, 0.5);
          accumulate_columns(stride == 1 ? rows.data() : strided.data(),
                             stride, count, got.data(), jlo, jhi);
          for (std::size_t j = 0; j < kCols; ++j)
            EXPECT_EQ(want[j], got[j])
                << "count=" << count << " stride=" << stride << " window=["
                << jlo << "," << jhi << ") col " << j;
        }
      }
    }
  }
}

TEST(SimdDispatch, CpuFeaturesStringIsStableAndNonEmpty) {
  const std::string features = bench::cpu_features_string();
  EXPECT_FALSE(features.empty());
  EXPECT_EQ(features, bench::cpu_features_string());
#if defined(__x86_64__) || defined(__i386__)
  // Any x86-64 host has SSE2 baseline.
  EXPECT_NE(features.find("sse2"), std::string::npos);
#endif
}

}  // namespace
}  // namespace udwn
