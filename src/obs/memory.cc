#include "obs/memory.h"

namespace fim::obs {

std::size_t MemoryComponent::TotalBytes() const {
  std::size_t total = self_bytes;
  for (const MemoryComponent& child : children) total += child.TotalBytes();
  return total;
}

void MemoryBreakdown::Record(MemoryComponent component) {
  const MutexLock lock(mutex_);
  std::size_t sum = 0;
  bool replaced = false;
  for (MemoryComponent& existing : components_) {
    if (existing.name == component.name) {
      // Keep-max: the breakdown reports each component's layout at its
      // own largest recorded moment.
      if (component.TotalBytes() >= existing.TotalBytes()) {
        existing = std::move(component);
      }
      replaced = true;
    }
    sum += existing.TotalBytes();
  }
  if (!replaced) {
    sum += component.TotalBytes();
    components_.push_back(std::move(component));
  }
  if (sum > high_water_bytes_) high_water_bytes_ = sum;
}

void MemoryBreakdown::RecordBytes(std::string name, std::size_t bytes) {
  Record(MemoryComponent(std::move(name), bytes));
}

std::vector<MemoryComponent> MemoryBreakdown::Components() const {
  const MutexLock lock(mutex_);
  return components_;
}

std::size_t MemoryBreakdown::AccountedBytes() const {
  const MutexLock lock(mutex_);
  std::size_t sum = 0;
  for (const MemoryComponent& component : components_) {
    sum += component.TotalBytes();
  }
  return sum;
}

std::size_t MemoryBreakdown::HighWaterBytes() const {
  const MutexLock lock(mutex_);
  return high_water_bytes_;
}

double MemoryReport::RssCoverage() const {
  if (!peak_rss.known || peak_rss.bytes == 0) return -1.0;
  return static_cast<double>(accounted_bytes) /
         static_cast<double>(peak_rss.bytes);
}

MemoryReport BuildMemoryReport(const MemoryBreakdown& breakdown) {
  MemoryReport report;
  report.components = breakdown.Components();
  report.accounted_bytes = breakdown.AccountedBytes();
  report.high_water_bytes = breakdown.HighWaterBytes();
  report.peak_rss = PeakRssBytes();
  return report;
}

}  // namespace fim::obs
