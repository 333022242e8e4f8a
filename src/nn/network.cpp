#include "nn/network.h"

#include <algorithm>

#include "common/contracts.h"

namespace miras::nn {

Network::Network(const MlpSpec& spec, Rng& rng) {
  MIRAS_EXPECTS(spec.input_dim > 0);
  MIRAS_EXPECTS(spec.output_dim > 0);
  std::size_t prev = spec.input_dim;
  for (const std::size_t width : spec.hidden_dims) {
    layers_.emplace_back(prev, width, spec.hidden_activation, rng);
    prev = width;
  }
  layers_.emplace_back(prev, spec.output_dim, spec.output_activation, rng);
}

Network::Network(std::vector<DenseLayer> layers) : layers_(std::move(layers)) {
  MIRAS_EXPECTS(!layers_.empty());
  for (std::size_t l = 1; l < layers_.size(); ++l)
    MIRAS_EXPECTS(layers_[l].in_dim() == layers_[l - 1].out_dim());
}

std::size_t Network::input_dim() const {
  MIRAS_EXPECTS(!layers_.empty());
  return layers_.front().in_dim();
}

std::size_t Network::output_dim() const {
  MIRAS_EXPECTS(!layers_.empty());
  return layers_.back().out_dim();
}

const Tensor& Network::forward(const Tensor& x) {
  MIRAS_EXPECTS(!layers_.empty());
  const Tensor* h = &x;
  for (auto& layer : layers_) h = &layer.forward(*h);
  return *h;
}

Tensor Network::predict(const Tensor& x) const {
  Tensor h = x;
  for (const auto& layer : layers_) h = layer.forward_const(h);
  return h;
}

void Network::predict_batch(const Tensor& x, Workspace& ws, Tensor& out) const {
  MIRAS_EXPECTS(!layers_.empty());
  MIRAS_EXPECTS(&out != &x && &out != &ws.a && &out != &ws.b);
  const Tensor* h = &x;
  for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
    Tensor& dst = (l % 2 == 0) ? ws.a : ws.b;
    layers_[l].forward_into(*h, dst);
    h = &dst;
  }
  layers_.back().forward_into(*h, out);
}

std::vector<double> Network::predict_one(const std::vector<double>& x) const {
  return predict(Tensor::row_vector(x)).row(0);
}

void Network::predict_one(const std::vector<double>& x, Workspace& ws,
                          std::vector<double>& out) const {
  MIRAS_EXPECTS(x.size() == input_dim());
  ws.x1.resize(1, x.size());
  std::copy(x.begin(), x.end(), ws.x1.data());
  predict_batch(ws.x1, ws, ws.y1);
  out.assign(ws.y1.data(), ws.y1.data() + ws.y1.size());
}

const Tensor& Network::backward(const Tensor& grad_output) {
  MIRAS_EXPECTS(!layers_.empty());
  const Tensor* g = &grad_output;
  bool into_a = true;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    Tensor& dst = into_a ? bwd_a_ : bwd_b_;
    it->backward_into(*g, dst);
    g = &dst;
    into_a = !into_a;
  }
  return *g;
}

const Tensor& Network::forward_shard(const Tensor& x, TrainPass& pass) const {
  MIRAS_EXPECTS(!layers_.empty());
  MIRAS_EXPECTS(pass.pre.size() == layers_.size());
  const Tensor* h = &x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].forward_shard(*h, pass.pre[l], pass.post[l]);
    h = &pass.post[l];
  }
  return *h;
}

const Tensor& Network::backward_shard(const Tensor& x,
                                      const Tensor& grad_output,
                                      TrainPass& pass) const {
  MIRAS_EXPECTS(!layers_.empty());
  MIRAS_EXPECTS(pass.grads.size() == layers_.size());
  MIRAS_EXPECTS(&grad_output != &pass.bwd_a && &grad_output != &pass.bwd_b);
  // g is dL/d(pre-activation) of layer l; each dX lands directly as the
  // layer below's dL/d(pre) (its activation folded into the epilogue), and
  // g ping-pongs between bwd_a and bwd_b.
  const std::size_t top = layers_.size() - 1;
  const Tensor* g = &layers_[top].output_grad_pre(
      pass.pre[top], pass.post[top], grad_output, pass.bwd_a);
  for (std::size_t l = layers_.size(); l-- > 0;) {
    const DenseLayer& layer = layers_[l];
    layer.param_grad_shard(l == 0 ? x : pass.post[l - 1], *g, pass.grads[l]);
    Tensor& dst = g == &pass.bwd_a ? pass.bwd_b : pass.bwd_a;
    if (l == 0) {
      layer.input_grad_shard(*g, 0, layer.in_dim(), dst);
    } else {
      layer.input_grad_shard(*g, 0, layer.in_dim(),
                             layers_[l - 1].activation(), pass.pre[l - 1],
                             pass.post[l - 1], pass.grad_pre, dst);
    }
    g = &dst;
  }
  return *g;
}

double Network::sharded_update(const std::vector<TrainPass>& passes,
                               std::size_t count, double max_norm,
                               AdamOptimizer& optimizer) {
  return sharded_adam_step(passes, count, layers_, max_norm, optimizer);
}

void Network::zero_grad() {
  for (auto& layer : layers_) layer.zero_grad();
}

std::size_t Network::parameter_count() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer.parameter_count();
  return total;
}

std::vector<double> Network::get_parameters() const {
  std::vector<double> flat;
  flat.reserve(parameter_count());
  for (const auto& layer : layers_) {
    const Tensor& w = layer.weights();
    flat.insert(flat.end(), w.data(), w.data() + w.size());
    const Tensor& b = layer.bias();
    flat.insert(flat.end(), b.data(), b.data() + b.size());
  }
  return flat;
}

void Network::set_parameters(const std::vector<double>& flat) {
  MIRAS_EXPECTS(flat.size() == parameter_count());
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    Tensor& w = layer.weights();
    for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = flat[offset + i];
    offset += w.size();
    Tensor& b = layer.bias();
    for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = flat[offset + i];
    offset += b.size();
  }
}

void Network::perturb_parameters(double stddev, Rng& rng) {
  MIRAS_EXPECTS(stddev >= 0.0);
  for (auto& layer : layers_) {
    Tensor& w = layer.weights();
    for (std::size_t i = 0; i < w.size(); ++i)
      w.data()[i] += rng.normal(0.0, stddev);
    Tensor& b = layer.bias();
    for (std::size_t i = 0; i < b.size(); ++i)
      b.data()[i] += rng.normal(0.0, stddev);
  }
}

void Network::soft_update_from(const Network& source, double tau) {
  MIRAS_EXPECTS(tau >= 0.0 && tau <= 1.0);
  MIRAS_EXPECTS(layers_.size() == source.layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Tensor& w = layers_[l].weights();
    const Tensor& sw = source.layers_[l].weights();
    MIRAS_EXPECTS(w.same_shape(sw));
    for (std::size_t i = 0; i < w.size(); ++i)
      w.data()[i] = tau * sw.data()[i] + (1.0 - tau) * w.data()[i];
    Tensor& b = layers_[l].bias();
    const Tensor& sb = source.layers_[l].bias();
    for (std::size_t i = 0; i < b.size(); ++i)
      b.data()[i] = tau * sb.data()[i] + (1.0 - tau) * b.data()[i];
  }
}

}  // namespace miras::nn
