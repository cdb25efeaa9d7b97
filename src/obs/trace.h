#ifndef FIM_OBS_TRACE_H_
#define FIM_OBS_TRACE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/timer.h"

namespace fim::obs {

/// One node of a hierarchical trace: a named phase with accumulated wall
/// and thread-CPU time. Re-entering a phase with the same name under the
/// same parent accumulates into the existing node (count tracks how
/// often), so loops produce one aggregated node instead of one node per
/// iteration. Children are kept in first-entry order.
struct SpanNode {
  std::string name;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::size_t count = 0;
  std::vector<std::unique_ptr<SpanNode>> children;

  /// The direct child named `child_name`, or nullptr.
  const SpanNode* FindChild(std::string_view child_name) const;
};

/// A tree of phase timings, built by nesting Span guards. A Trace is
/// thread-confined: open and close spans from one thread at a time (the
/// miners time their parallel sections as one span on the driving
/// thread, so worker threads never touch the trace). The root node is
/// unnamed and carries no timing of its own — its children are the
/// top-level phases.
class Trace {
 public:
  Trace() { open_.push_back(&root_); }
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  const SpanNode& root() const { return root_; }

  /// Number of spans currently open (0 = quiescent).
  std::size_t OpenDepth() const { return open_.size() - 1; }

 private:
  friend class Span;

  /// Opens a child span of the innermost open span, creating or reusing
  /// the child node with `name`.
  SpanNode* Begin(std::string_view name);

  /// Closes the innermost open span, accumulating the elapsed times.
  void End(double wall_seconds, double cpu_seconds);

  SpanNode root_;
  std::vector<SpanNode*> open_;  // root at the bottom; node storage is
                                 // unique_ptr-stable, pointers survive
                                 // sibling insertions
};

/// RAII phase timer: opens a span on construction, records wall + thread
/// CPU time into the trace on destruction. A null trace makes the guard
/// a no-op, so instrumented code needs no branches:
///
///   {
///     obs::Span span(trace, "recode");   // trace may be nullptr
///     ... phase work ...
///   }                                     // recorded here
class Span {
 public:
  Span(Trace* trace, std::string_view name) : trace_(trace) {
    if (trace_ != nullptr) trace_->Begin(name);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span now instead of at scope exit (for phases that run
  /// back to back in one scope); the destructor then does nothing.
  void End() {
    if (trace_ != nullptr) {
      trace_->End(wall_.Seconds(), cpu_.Seconds());
      trace_ = nullptr;
    }
  }

  ~Span() { End(); }

 private:
  Trace* trace_;
  WallTimer wall_;
  CpuTimer cpu_;
};

}  // namespace fim::obs

#endif  // FIM_OBS_TRACE_H_
