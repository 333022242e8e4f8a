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

Tensor Network::predict(const Tensor& x) const {
  Workspace ws;
  Tensor out;
  predict_batch(x, ws, out);
  return out;
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
                               AdamOptimizer& optimizer,
                               const StepFold& fold) {
  return sharded_adam_step(passes, count, layers_, max_norm, optimizer,
                           fold);
}

std::size_t Network::parameter_count() const {
  return nn::parameter_count(layers_);
}

std::vector<double> Network::get_parameters() const {
  return nn::get_parameters(layers_);
}

void Network::set_parameters(const std::vector<double>& flat) {
  nn::set_parameters(layers_, flat);
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
  soft_update(layers_, source.layers_, tau);
}

}  // namespace miras::nn
