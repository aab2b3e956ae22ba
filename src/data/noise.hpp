// Noise injection for robustness experiments (Fig. 6 adds Gaussian noise
// at a target SNR over unseen-user data).
#pragma once

#include <cstdint>

#include "nn/tensor.hpp"

namespace origin::data {

/// Adds white Gaussian noise so the result has the requested SNR (dB)
/// relative to the tensor's AC power (mean removed). A silent window is
/// left untouched. The noise is the keyed fill of `key`
/// (nn::kernels::gauss_fill), one value per element in order.
void add_gaussian_noise_snr(nn::Tensor& window, double snr_db,
                            std::uint64_t key);

/// Measured SNR (dB) of `noisy` against the clean reference.
double measure_snr_db(const nn::Tensor& clean, const nn::Tensor& noisy);

}  // namespace origin::data
