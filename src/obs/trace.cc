#include "obs/trace.h"

#include "common/check.h"

namespace fim::obs {

const SpanNode* SpanNode::FindChild(std::string_view child_name) const {
  for (const auto& child : children) {
    if (child->name == child_name) return child.get();
  }
  return nullptr;
}

SpanNode* Trace::Begin(std::string_view name) {
  SpanNode* parent = open_.back();
  SpanNode* node = nullptr;
  for (const auto& child : parent->children) {
    if (child->name == name) {
      node = child.get();
      break;
    }
  }
  if (node == nullptr) {
    parent->children.push_back(std::make_unique<SpanNode>());
    node = parent->children.back().get();
    node->name = std::string(name);
  }
  open_.push_back(node);
  return node;
}

void Trace::End(double wall_seconds, double cpu_seconds) {
  FIM_CHECK(open_.size() > 1) << "Trace::End without a matching Begin";
  SpanNode* node = open_.back();
  open_.pop_back();
  node->wall_seconds += wall_seconds;
  node->cpu_seconds += cpu_seconds;
  ++node->count;
}

}  // namespace fim::obs
