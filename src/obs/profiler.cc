#include "obs/profiler.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define FIM_PROFILER_POSIX 1
#include <csignal>
#include <sys/time.h>
#if defined(__linux__)
#include <ucontext.h>
#endif
#if defined(__has_include)
#if __has_include(<execinfo.h>)
#define FIM_PROFILER_BACKTRACE 1
#include <execinfo.h>
#endif
#if __has_include(<dlfcn.h>)
#define FIM_PROFILER_DLADDR 1
#include <dlfcn.h>
#endif
#if __has_include(<cxxabi.h>)
#define FIM_PROFILER_DEMANGLE 1
#include <cxxabi.h>
#endif
#endif
#endif

namespace fim::obs {
namespace {

/// The single active profiler, published for the signal handler. CAS'd
/// from null by Start() (one profiler per process) and cleared by
/// Stop() before the sample memory is touched by the folding code.
std::atomic<SamplingProfiler*> g_active_profiler{nullptr};

/// Frames above the interrupted one in every captured stack: TakeSample,
/// the handler and the signal trampoline the kernel returns through.
/// Dropped at fold time when the interrupted program counter is unknown
/// or not among the frames; otherwise the stack starts at that frame.
constexpr std::size_t kHandlerFrames = 3;

#if defined(FIM_PROFILER_POSIX)
/// The program counter the signal interrupted, from the handler's
/// context; null on platforms whose context is not decoded here.
void* InterruptedPc(void* context) {
#if defined(__linux__) && defined(__x86_64__)
  return reinterpret_cast<void*>(
      static_cast<ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
#elif defined(__linux__) && defined(__aarch64__)
  return reinterpret_cast<void*>(
      static_cast<ucontext_t*>(context)->uc_mcontext.pc);
#else
  (void)context;
  return nullptr;
#endif
}
#endif

}  // namespace

void SampleActiveProfiler(void* interrupted_pc) {
  SamplingProfiler* profiler =
      g_active_profiler.load(std::memory_order_acquire);
  if (profiler != nullptr) profiler->TakeSample(interrupted_pc);
}

#if defined(FIM_PROFILER_POSIX)
namespace {

void ProfilerSignalHandler(int /*signum*/, siginfo_t* /*info*/,
                           void* context) {
  // Save and restore errno: the handler may interrupt code between a
  // syscall and its errno check, and backtrace can clobber it.
  const int saved_errno = errno;
  SampleActiveProfiler(InterruptedPc(context));
  errno = saved_errno;
}

}  // namespace
#endif

// The sample buffers are allocated but not initialized: a page becomes
// resident only when a sample is written to it, so an idle or short
// profile does not add the full capacity to the peak RSS it reports.
SamplingProfiler::SamplingProfiler(const ProfilerOptions& options)
    : options_(options),
      frames_(std::make_unique_for_overwrite<void*[]>(options.max_samples *
                                                      options.max_depth)),
      depths_(std::make_unique_for_overwrite<std::uint16_t[]>(
          options.max_samples)),
      pcs_(std::make_unique_for_overwrite<void*[]>(options.max_samples)) {}

std::unique_ptr<SamplingProfiler> SamplingProfiler::Start(
    const ProfilerOptions& options, std::string* error) {
#if !defined(FIM_PROFILER_POSIX) || !defined(FIM_PROFILER_BACKTRACE)
  if (error != nullptr) {
    *error = "sampling profiler unavailable: requires POSIX signals and "
             "backtrace()";
  }
  (void)options;
  return nullptr;
#else
  if (options.interval_usec == 0 || options.max_samples == 0 ||
      options.max_depth == 0 || options.max_depth > UINT16_MAX) {
    if (error != nullptr) *error = "invalid profiler options";
    return nullptr;
  }
  // Preallocate before publishing, then warm up backtrace: its first
  // call may dlopen/allocate inside libgcc, which must not happen in
  // the handler.
  std::unique_ptr<SamplingProfiler> profiler(new SamplingProfiler(options));
  {
    void* warmup[4];
    (void)::backtrace(warmup, 4);
  }

  SamplingProfiler* expected = nullptr;
  if (!g_active_profiler.compare_exchange_strong(
          expected, profiler.get(), std::memory_order_acq_rel)) {
    if (error != nullptr) {
      *error = "a sampling profiler is already running in this process";
    }
    return nullptr;
  }

  static_assert(sizeof(struct sigaction) <= sizeof(profiler->old_action_),
                "old_action_ storage too small for struct sigaction");
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &ProfilerSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART | SA_SIGINFO;
  auto* old_action =
      reinterpret_cast<struct sigaction*>(profiler->old_action_);
  if (sigaction(SIGPROF, &action, old_action) != 0) {
    g_active_profiler.store(nullptr, std::memory_order_release);
    if (error != nullptr) *error = "sigaction(SIGPROF) failed";
    return nullptr;
  }
  profiler->old_action_valid_ = true;

  itimerval timer{};
  timer.it_interval.tv_sec = options.interval_usec / 1000000;
  timer.it_interval.tv_usec =
      static_cast<suseconds_t>(options.interval_usec % 1000000);
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    sigaction(SIGPROF, old_action, nullptr);
    profiler->old_action_valid_ = false;
    g_active_profiler.store(nullptr, std::memory_order_release);
    if (error != nullptr) *error = "setitimer(ITIMER_PROF) failed";
    return nullptr;
  }
  profiler->armed_ = true;
  return profiler;
#endif
}

void SamplingProfiler::TakeSample(void* interrupted_pc) {
#if defined(FIM_PROFILER_POSIX) && defined(FIM_PROFILER_BACKTRACE)
  // ITIMER_PROF is process-wide: concurrent deliveries on two threads
  // are possible, so handler bodies are serialized by busy_ (the loser
  // drops its sample rather than corrupting a slot).
  if (busy_.exchange(true, std::memory_order_acq_rel)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t index = count_.load(std::memory_order_relaxed);
  if (index < options_.max_samples) {
    const int depth = ::backtrace(
        frames_.get() + index * options_.max_depth,
        static_cast<int>(options_.max_depth));
    depths_[index] = depth > 0 ? static_cast<std::uint16_t>(depth) : 0;
    pcs_[index] = interrupted_pc;
    count_.store(index + 1, std::memory_order_release);
    // The busy_ acq/rel handoff makes successive handler bodies (even
    // on different threads) a serial writer sequence for the lane.
    if (options_.lane != nullptr) options_.lane->Instant("prof");
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  busy_.store(false, std::memory_order_release);
#endif
}

void SamplingProfiler::Stop() {
#if defined(FIM_PROFILER_POSIX) && defined(FIM_PROFILER_BACKTRACE)
  if (armed_) {
    itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    if (old_action_valid_) {
      sigaction(SIGPROF, reinterpret_cast<struct sigaction*>(old_action_),
                nullptr);
      old_action_valid_ = false;
    }
    armed_ = false;
  }
  if (g_active_profiler.load(std::memory_order_acquire) == this) {
    g_active_profiler.store(nullptr, std::memory_order_release);
  }
  // Wait out an in-flight handler (a signal delivered before the timer
  // was disarmed may still be running on another thread).
  while (busy_.load(std::memory_order_acquire)) {
  }
#endif
}

SamplingProfiler::~SamplingProfiler() { Stop(); }

namespace internal {

std::string SymbolizeAddress(void* addr) {
#if defined(FIM_PROFILER_DLADDR)
  Dl_info info{};
  if (dladdr(addr, &info) != 0) {
    if (info.dli_sname != nullptr) {
#if defined(FIM_PROFILER_DEMANGLE)
      int demangle_status = 0;
      char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr,
                                            &demangle_status);
      if (demangle_status == 0 && demangled != nullptr) {
        std::string name(demangled);
        std::free(demangled);  // NOLINT(cppcoreguidelines-no-malloc)
        return name;
      }
      std::free(demangled);  // NOLINT(cppcoreguidelines-no-malloc)
#endif
      return info.dli_sname;
    }
    if (info.dli_fname != nullptr) {
      // No symbol: module basename + offset still groups usefully.
      const char* base = std::strrchr(info.dli_fname, '/');
      const std::string module(base != nullptr ? base + 1 : info.dli_fname);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "+0x%zx",
                    static_cast<std::size_t>(
                        reinterpret_cast<char*>(addr) -
                        reinterpret_cast<char*>(info.dli_fbase)));
      return module + buf;
    }
  }
#endif
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%zx",
                reinterpret_cast<std::size_t>(addr));
  return buf;
}

std::string FoldStacks(const std::vector<std::vector<std::string>>& stacks,
                       std::size_t samples, std::size_t dropped,
                       unsigned interval_usec) {
  // std::map: the output is sorted by stack string, so the same sample
  // set always renders the same bytes.
  std::map<std::string, std::uint64_t> folded;
  for (const auto& stack : stacks) {
    if (stack.empty()) continue;
    std::string line;
    // Collapsed format wants root first; stacks arrive leaf-first.
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (!line.empty()) line += ';';
      line += *it;
    }
    ++folded[line];
  }
  std::ostringstream out;
  out << "# fim-prof-v1 samples=" << samples << " dropped=" << dropped
      << " interval_usec=" << interval_usec << '\n';
  for (const auto& [stack, count] : folded) {
    out << stack << ' ' << count << '\n';
  }
  return out.str();
}

}  // namespace internal

std::string SamplingProfiler::RenderCollapsed() {
  Stop();
  const std::size_t samples = count_.load(std::memory_order_acquire);
  // Symbolize each distinct address once; mining stacks repeat heavily.
  std::unordered_map<void*, std::string> symbol_cache;
  auto symbol = [&symbol_cache](void* addr) -> const std::string& {
    auto [it, inserted] = symbol_cache.try_emplace(addr);
    if (inserted) it->second = internal::SymbolizeAddress(addr);
    return it->second;
  };
  std::vector<std::vector<std::string>> stacks;
  stacks.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const std::size_t depth = depths_[i];
    void* const* frames = frames_.get() + i * options_.max_depth;
    // The leaf is the interrupted function: drop the frames through the
    // signal trampoline.
    std::size_t first = kHandlerFrames;
    for (std::size_t f = 0; f < depth; ++f) {
      if (frames[f] == pcs_[i]) {
        first = f;
        break;
      }
    }
    std::vector<std::string> stack;
    for (std::size_t f = first; f < depth; ++f) {
      stack.push_back(symbol(frames[f]));
    }
    if (stack.empty() && depth > 0) {
      // Shallower than the handler prologue (signal arrived inside the
      // runtime): keep what we have rather than losing the sample.
      for (std::size_t f = 0; f < depth; ++f) {
        stack.push_back(symbol(frames[f]));
      }
    }
    stacks.push_back(std::move(stack));
  }
  return internal::FoldStacks(stacks, samples,
                              dropped_.load(std::memory_order_relaxed),
                              options_.interval_usec);
}

Status SamplingProfiler::WriteCollapsedFile(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  out << RenderCollapsed();
  out.flush();
  if (!out) {
    return Status::IoError("error writing " + path);
  }
  return Status::OK();
}

}  // namespace fim::obs
