// Host ISA features for benchmark provenance: the experiment JSON sink
// (exp_common.h) and bench_bignode's benchmark context record them, so a
// committed number says which vector units the host had.
#pragma once

#include <string>

namespace udwn::bench {

/// Comma-separated list of the ISA features this host reports (e.g.
/// "sse2,avx,avx2,fma"); "none" when nothing is probed. Stable across calls.
inline std::string cpu_features_string() {
  std::string features;
  const auto add = [&features](const char* name) {
    if (!features.empty()) features += ',';
    features += name;
  };
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("sse2")) add("sse2");
  if (__builtin_cpu_supports("avx")) add("avx");
  if (__builtin_cpu_supports("avx2")) add("avx2");
  if (__builtin_cpu_supports("fma")) add("fma");
  if (__builtin_cpu_supports("avx512f")) add("avx512f");
#endif
#if defined(__aarch64__)
  add("neon");
#endif
  if (features.empty()) features = "none";
  return features;
}

}  // namespace udwn::bench
