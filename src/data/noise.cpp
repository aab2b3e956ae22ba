#include "data/noise.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "nn/kernels.hpp"

namespace origin::data {

void add_gaussian_noise_snr(nn::Tensor& window, double snr_db,
                            std::uint64_t key) {
  if (window.empty()) return;
  const double n = static_cast<double>(window.size());
  double mean = 0.0;
  for (std::size_t i = 0; i < window.size(); ++i) mean += window[i];
  mean /= n;
  double power = 0.0;
  for (std::size_t i = 0; i < window.size(); ++i) {
    const double d = window[i] - mean;
    power += d * d;
  }
  power /= n;
  if (power <= 0.0) return;
  const double noise_power = power / std::pow(10.0, snr_db / 10.0);
  const double sigma = std::sqrt(noise_power);
  thread_local std::vector<double> noise;
  noise.resize(window.size());
  nn::kernels::gauss_fill(key, noise.data(), noise.size());
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] += static_cast<float>(sigma * noise[i]);
  }
}

double measure_snr_db(const nn::Tensor& clean, const nn::Tensor& noisy) {
  if (!clean.same_shape(noisy)) {
    throw std::invalid_argument("measure_snr_db: shape mismatch");
  }
  const double n = static_cast<double>(clean.size());
  double mean = 0.0;
  for (std::size_t i = 0; i < clean.size(); ++i) mean += clean[i];
  mean /= n;
  double signal = 0.0, noise = 0.0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    const double s = clean[i] - mean;
    const double e = noisy[i] - clean[i];
    signal += s * s;
    noise += e * e;
  }
  if (noise <= 0.0) return 1e9;
  return 10.0 * std::log10(signal / noise);
}

}  // namespace origin::data
