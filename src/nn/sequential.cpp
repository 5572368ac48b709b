#include "nn/sequential.hpp"

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"

namespace hdczsc::nn {

Tensor Sequential::forward(const Tensor& x, bool train) {
  Tensor h = x;
  for (std::size_t i = 0; i < layers_.size();) {
    if (const ConvRun run = train ? ConvRun{} : conv_run(i); run.conv) {
      h = run.conv->forward_fused(h, run.bn, nullptr, run.relu);
      i = run.end;
    } else {
      h = layers_[i++]->forward(h, train);
    }
  }
  return h;
}

ConvRun Sequential::conv_run(std::size_t i) {
  ConvRun run;
  run.conv = dynamic_cast<Conv2d*>(layers_.at(i).get());
  if (!run.conv) return run;
  run.end = i + 1;
  if (run.end < layers_.size()) run.bn = dynamic_cast<BatchNorm2d*>(layers_[run.end].get());
  if (run.bn) ++run.end;
  run.relu = run.end < layers_.size() && dynamic_cast<ReLU*>(layers_[run.end].get());
  if (run.relu) ++run.end;
  return run;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    auto ps = layer->parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

std::vector<BufferRef> Sequential::buffers() {
  std::vector<BufferRef> out;
  for (auto& layer : layers_) {
    auto bs = layer->buffers();
    out.insert(out.end(), bs.begin(), bs.end());
  }
  return out;
}

}  // namespace hdczsc::nn
