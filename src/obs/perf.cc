#include "obs/perf.h"

#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace fim::obs {

ResourceUsage ReadResourceUsage() {
  ResourceUsage usage;
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return usage;
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  usage.known = true;
  usage.user_seconds = seconds(ru.ru_utime);
  usage.system_seconds = seconds(ru.ru_stime);
  usage.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  usage.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
  usage.voluntary_ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw);
  usage.involuntary_ctx_switches = static_cast<std::uint64_t>(ru.ru_nivcsw);
#endif
  return usage;
}

void PerfDomainCollector::Record(PerfDomainSample sample) {
  MutexLock lock(mutex_);
  samples_.push_back(std::move(sample));
}

std::vector<PerfDomainSample> PerfDomainCollector::Samples() const {
  MutexLock lock(mutex_);
  return samples_;
}

PerfDomainScope::PerfDomainScope(PerfDomainCollector* collector,
                                 std::string name)
    : collector_(collector), name_(std::move(name)) {
  if (collector_ != nullptr) cpu_.Reset();
}

PerfDomainScope::~PerfDomainScope() {
  if (collector_ == nullptr) return;
  PerfDomainSample sample;
  sample.name = std::move(name_);
  sample.cpu_seconds = cpu_.Seconds();
  sample.work_steps = work_steps_;
  collector_->Record(std::move(sample));
}

}  // namespace fim::obs
