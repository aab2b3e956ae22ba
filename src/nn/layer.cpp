#include "nn/layer.hpp"

#include <stdexcept>

namespace origin::nn {

Tensor Layer::forward(const Tensor& input, bool train) {
  const Tensor* in = &input;
  Tensor out;
  forward_batch(&in, 1, &out, train);
  return out;
}

Tensor Layer::backward(const Tensor& grad_output) {
  const Tensor* g = &grad_output;
  Tensor grad_in;
  backward_batch(&g, 1, &grad_in);
  return grad_in;
}

void Layer::require_train_cache(std::size_t cached, std::size_t count) const {
  if (cached == 0 || cached != count) {
    throw std::logic_error(
        kind() + "::backward_batch: no cached batch of " +
        std::to_string(count) +
        " — call forward_batch(..., train=true) with the same batch first "
        "(inference forwards retain nothing)");
  }
}

void Layer::size_grad(Tensor& grad, const Tensor& param) {
  if (!grad.same_shape(param)) grad = Tensor(param.shape());
}

}  // namespace origin::nn
