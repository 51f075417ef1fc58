// Small helpers shared by the load generator: a seeded generator,
// a monotonic clock and sample statistics.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Geometric count of failures before a success with probability p:
  // small values are most likely (recent versions in a history walk).
  uint64_t Geometric(double p, uint64_t cap) {
    uint64_t k = 0;
    while (k < cap && Unit() >= p) ++k;
    return k;
  }

 private:
  uint64_t state_;
};

// Lines of `text` without their '\n'; a final '\n' adds no empty line.
inline std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// The inverse of Lines: every line followed by '\n'.
inline std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out.push_back('\n');
  }
  return out;
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Adds the duration of its scope to *ns. Set-up uses it to leave the
// benchmark's own work (generating text, keeping its record, checking
// answers) out of setup_s.
class OwnTime {
 public:
  explicit OwnTime(int64_t* ns) : ns_(ns), start_(NowNs()) {}
  ~OwnTime() { *ns_ += NowNs() - start_; }
  OwnTime(const OwnTime&) = delete;
  OwnTime& operator=(const OwnTime&) = delete;

 private:
  int64_t* ns_;
  int64_t start_;
};

// Median of the samples (interpolated between the middle two).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile, 0 < q <= 1.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  if (rank == 0) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
