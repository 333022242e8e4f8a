#include "nn/critic_network.h"

#include <cstring>

#include "common/contracts.h"

namespace miras::nn {

CriticNetwork::CriticNetwork(const CriticSpec& spec, Rng& rng)
    : state_dim_(spec.state_dim), action_dim_(spec.action_dim) {
  MIRAS_EXPECTS(spec.state_dim > 0);
  MIRAS_EXPECTS(spec.action_dim > 0);
  MIRAS_EXPECTS(spec.hidden_dims.size() >= 2);
  layers_.emplace_back(spec.state_dim, spec.hidden_dims[0],
                       spec.hidden_activation, rng);
  layers_.emplace_back(spec.hidden_dims[0] + spec.action_dim,
                       spec.hidden_dims[1], spec.hidden_activation, rng);
  std::size_t prev = spec.hidden_dims[1];
  for (std::size_t i = 2; i < spec.hidden_dims.size(); ++i) {
    layers_.emplace_back(prev, spec.hidden_dims[i], spec.hidden_activation,
                         rng);
    prev = spec.hidden_dims[i];
  }
  layers_.emplace_back(prev, 1, Activation::kIdentity, rng);
}

CriticNetwork::CriticNetwork(std::vector<DenseLayer> layers)
    : layers_(std::move(layers)) {
  MIRAS_EXPECTS(layers_.size() >= 3);
  MIRAS_EXPECTS(layers_[1].in_dim() > layers_[0].out_dim());
  state_dim_ = layers_[0].in_dim();
  action_dim_ = layers_[1].in_dim() - layers_[0].out_dim();
  for (std::size_t l = 2; l < layers_.size(); ++l)
    MIRAS_EXPECTS(layers_[l].in_dim() == layers_[l - 1].out_dim());
  MIRAS_EXPECTS(layers_.back().out_dim() == 1);
}

void CriticNetwork::concat_cols_into(const Tensor& a, const Tensor& b,
                                     Tensor& out) {
  MIRAS_EXPECTS(a.rows() == b.rows());
  MIRAS_EXPECTS(&out != &a && &out != &b);
  const std::size_t ac = a.cols(), bc = b.cols();
  out.resize(a.rows(), ac + bc);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double* row = out.data() + r * (ac + bc);
    std::memcpy(row, a.data() + r * ac, ac * sizeof(double));
    std::memcpy(row + ac, b.data() + r * bc, bc * sizeof(double));
  }
}

const Tensor& CriticNetwork::forward(const Tensor& states,
                                     const Tensor& actions) {
  MIRAS_EXPECTS(states.cols() == state_dim_);
  MIRAS_EXPECTS(actions.cols() == action_dim_);
  const Tensor& h1 = layers_[0].forward(states);
  concat_cols_into(h1, actions, concat_);
  const Tensor* h = &layers_[1].forward(concat_);
  for (std::size_t l = 2; l < layers_.size(); ++l) h = &layers_[l].forward(*h);
  return *h;
}

Tensor CriticNetwork::predict(const Tensor& states,
                              const Tensor& actions) const {
  MIRAS_EXPECTS(states.cols() == state_dim_);
  MIRAS_EXPECTS(actions.cols() == action_dim_);
  Tensor h = layers_[0].forward_const(states);
  Tensor cat;
  concat_cols_into(h, actions, cat);
  h = layers_[1].forward_const(cat);
  for (std::size_t l = 2; l < layers_.size(); ++l)
    h = layers_[l].forward_const(h);
  return h;
}

void CriticNetwork::predict_batch(const Tensor& states, const Tensor& actions,
                                  Workspace& ws, Tensor& out) const {
  MIRAS_EXPECTS(states.cols() == state_dim_);
  MIRAS_EXPECTS(actions.cols() == action_dim_);
  MIRAS_EXPECTS(&out != &states && &out != &actions);
  MIRAS_EXPECTS(&out != &ws.a && &out != &ws.b && &out != &ws.concat);
  layers_[0].forward_into(states, ws.a);
  concat_cols_into(ws.a, actions, ws.concat);
  // ws.a is free again once the concat block is assembled.
  const Tensor* h = &ws.concat;
  for (std::size_t l = 1; l + 1 < layers_.size(); ++l) {
    Tensor& dst = (l % 2 == 1) ? ws.a : ws.b;
    layers_[l].forward_into(*h, dst);
    h = &dst;
  }
  layers_.back().forward_into(*h, out);
}

double CriticNetwork::predict_one(const std::vector<double>& state,
                                  const std::vector<double>& action) const {
  return predict(Tensor::row_vector(state), Tensor::row_vector(action))(0, 0);
}

std::pair<Tensor, Tensor> CriticNetwork::backward(const Tensor& grad_q) {
  Tensor grad_states, grad_actions;
  backward_into(grad_q, grad_states, grad_actions);
  return {std::move(grad_states), std::move(grad_actions)};
}

void CriticNetwork::backward_into(const Tensor& grad_q, Tensor& grad_states,
                                  Tensor& grad_actions) {
  MIRAS_EXPECTS(grad_q.cols() == 1);
  const Tensor* grad = &grad_q;
  bool into_a = true;
  for (std::size_t l = layers_.size() - 1; l >= 2; --l) {
    Tensor& dst = into_a ? bwd_a_ : bwd_b_;
    layers_[l].backward_into(*grad, dst);
    grad = &dst;
    into_a = !into_a;
  }
  // grad is now dL/d(h2); backprop through the joint layer and split the
  // [h1 || a] columns.
  layers_[1].backward_into(*grad, grad_concat_);
  const std::size_t h1_width = layers_[0].out_dim();
  const std::size_t width = h1_width + action_dim_;
  grad_h1_.resize(grad_concat_.rows(), h1_width);
  grad_actions.resize(grad_concat_.rows(), action_dim_);
  for (std::size_t r = 0; r < grad_concat_.rows(); ++r) {
    const double* row = grad_concat_.data() + r * width;
    std::memcpy(grad_h1_.data() + r * h1_width, row,
                h1_width * sizeof(double));
    std::memcpy(grad_actions.data() + r * action_dim_, row + h1_width,
                action_dim_ * sizeof(double));
  }
  layers_[0].backward_into(grad_h1_, grad_states);
}

const Tensor& CriticNetwork::forward_shard(const Tensor& states,
                                           const Tensor& actions,
                                           TrainPass& pass) const {
  MIRAS_EXPECTS(states.cols() == state_dim_);
  MIRAS_EXPECTS(actions.cols() == action_dim_);
  MIRAS_EXPECTS(pass.pre.size() == layers_.size());
  layers_[0].forward_shard(states, pass.pre[0], pass.post[0]);
  concat_cols_into(pass.post[0], actions, pass.concat);
  const Tensor* h = &pass.concat;
  for (std::size_t l = 1; l < layers_.size(); ++l) {
    layers_[l].forward_shard(*h, pass.pre[l], pass.post[l]);
    h = &pass.post[l];
  }
  return *h;
}

void CriticNetwork::backward_shard(const Tensor& states, const Tensor& actions,
                                   const Tensor& grad_q, TrainPass& pass,
                                   CriticGrads what) const {
  MIRAS_EXPECTS(grad_q.cols() == 1);
  MIRAS_EXPECTS(actions.cols() == action_dim_);
  MIRAS_EXPECTS(pass.grads.size() == layers_.size());
  MIRAS_EXPECTS(&grad_q != &pass.bwd_a && &grad_q != &pass.bwd_b);
  const bool params = what != CriticGrads::kActions;
  // g is dL/d(pre-activation) of layer l, ping-ponging between bwd_a and
  // bwd_b; each dX lands directly as the layer below's dL/d(pre).
  const std::size_t top = layers_.size() - 1;
  const Tensor* g = &layers_[top].output_grad_pre(
      pass.pre[top], pass.post[top], grad_q, pass.bwd_a);
  for (std::size_t l = top; l >= 2; --l) {
    const DenseLayer& layer = layers_[l];
    if (params) layer.param_grad_shard(pass.post[l - 1], *g, pass.grads[l]);
    Tensor& dst = g == &pass.bwd_a ? pass.bwd_b : pass.bwd_a;
    layer.input_grad_shard(*g, 0, layer.in_dim(), layers_[l - 1].activation(),
                           pass.pre[l - 1], pass.post[l - 1], pass.grad_pre,
                           dst);
    g = &dst;
  }
  // The joint layer's input is [h1 || a]: its dX splits by column range,
  // so each half is computed only when something reads it. dQ/ds (layer
  // 0's dX) is never computed: nothing consumes it.
  const DenseLayer& joint = layers_[1];
  const std::size_t h1 = layers_[0].out_dim();
  if (what != CriticGrads::kParameters)
    joint.input_grad_shard(*g, h1, h1 + action_dim_, pass.grad_actions);
  if (!params) return;
  joint.param_grad_shard(pass.concat, *g, pass.grads[1]);
  joint.input_grad_shard(*g, 0, h1, layers_[0].activation(), pass.pre[0],
                         pass.post[0], pass.grad_pre, pass.grad_h1);
  layers_[0].param_grad_shard(states, pass.grad_h1, pass.grads[0]);
}

double CriticNetwork::sharded_update(const std::vector<TrainPass>& passes,
                                     std::size_t count, double max_norm,
                                     AdamOptimizer& optimizer) {
  return sharded_adam_step(passes, count, layers_, max_norm, optimizer);
}

void CriticNetwork::zero_grad() {
  for (auto& layer : layers_) layer.zero_grad();
}

std::size_t CriticNetwork::parameter_count() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer.parameter_count();
  return total;
}

std::vector<double> CriticNetwork::get_parameters() const {
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

void CriticNetwork::set_parameters(const std::vector<double>& flat) {
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

void CriticNetwork::soft_update_from(const CriticNetwork& source, double tau) {
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
