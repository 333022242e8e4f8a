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

Tensor CriticNetwork::predict(const Tensor& states,
                              const Tensor& actions) const {
  Workspace ws;
  Tensor out;
  predict_batch(states, actions, ws, out);
  return out;
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
                                     AdamOptimizer& optimizer,
                                     const StepFold& fold) {
  return sharded_adam_step(passes, count, layers_, max_norm, optimizer,
                           fold);
}

std::size_t CriticNetwork::parameter_count() const {
  return nn::parameter_count(layers_);
}

std::vector<double> CriticNetwork::get_parameters() const {
  return nn::get_parameters(layers_);
}

void CriticNetwork::set_parameters(const std::vector<double>& flat) {
  nn::set_parameters(layers_, flat);
}

}  // namespace miras::nn
