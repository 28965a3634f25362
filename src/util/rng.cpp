#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace sgm::util {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64: seeds the xoshiro state so nearby seeds give unrelated streams.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random bits -> [0,1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  // (0 - n) % n with n == 0 is undefined behavior, not just a bad value.
  if (n == 0)
    throw std::invalid_argument("Rng::uniform_index: n must be > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_normal_ = mag * std::sin(2.0 * M_PI * u2);
  has_spare_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

void Rng::shuffle(std::vector<std::uint32_t>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = uniform_index(i);
    std::swap(v[i - 1], v[j]);
  }
}

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n,
                                                           std::uint32_t k) {
  if (k > n) k = n;
  if (k == 0) return {};
  if (k * 3ull >= n) {
    std::vector<std::uint32_t> all(n);
    for (std::uint32_t i = 0; i < n; ++i) all[i] = i;
    shuffle(all);
    all.resize(k);
    return all;
  }
  // Floyd's algorithm: k iterations, O(k) expected memory.
  std::unordered_set<std::uint32_t> chosen;
  std::vector<std::uint32_t> out;
  out.reserve(k);
  for (std::uint32_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::uint32_t>(uniform_index(j + 1));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

Rng Rng::split() { return Rng(next_u64() ^ 0xD1B54A32D192ED03ull); }

RngState Rng::state() const {
  RngState st;
  for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
  st.spare_normal = spare_normal_;
  st.has_spare = has_spare_;
  return st;
}

void Rng::set_state(const RngState& st) {
  for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
  spare_normal_ = st.spare_normal;
  has_spare_ = st.has_spare;
}

}  // namespace sgm::util
