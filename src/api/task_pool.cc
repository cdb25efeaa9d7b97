#include "api/task_pool.h"

#include <atomic>
#include <cstdint>
#include <exception>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sync.h"
#include "data/recode.h"

namespace fim {

namespace {

// A task's sets in report order, as rows weighted by their supports.
using Chunk = WeightedTransactions;

// Large enough that the hand-over costs little, small enough that the
// calling thread starts on a running task's sets early.
constexpr std::size_t kChunkBytes = std::size_t{256} << 10;

// The chunks each task has published and the calling thread has not
// taken yet.
class TaskQueues {
 public:
  explicit TaskQueues(std::size_t num_tasks) : tasks_(num_tasks) {}

  void Publish(std::size_t task, Chunk chunk) FIM_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      tasks_[task].chunks.push_back(std::move(chunk));
    }
    Signal();
  }

  // No chunk of `task` follows.
  void Close(std::size_t task) FIM_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      tasks_[task].closed = true;
    }
    Signal();
  }

  // Every Take returns false from now on.
  void Cancel() FIM_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      cancelled_ = true;
    }
    Signal();
  }

  // Moves the chunks `task` has published into *chunks (empty on entry),
  // waiting until there is one; false once the task is closed and
  // taken, or cancelled.
  bool Take(std::size_t task, std::vector<Chunk>* chunks)
      FIM_EXCLUDES(mutex_) {
    for (;;) {
      // Read before the state, so a Signal after the check ends the wait.
      const std::uint64_t seen = events_.load();
      {
        MutexLock lock(mutex_);
        if (cancelled_) return false;
        if (!tasks_[task].chunks.empty()) {
          chunks->swap(tasks_[task].chunks);
          return true;
        }
        if (tasks_[task].closed) return false;
      }
      events_.wait(seen);
    }
  }

 private:
  struct Task {
    std::vector<Chunk> chunks;
    bool closed = false;
  };

  void Signal() {
    events_.fetch_add(1);
    events_.notify_one();  // the calling thread is the one waiter
  }

  Mutex mutex_{LockRank::kTaskQueues, "TaskQueues::mutex_"};
  std::vector<Task> tasks_ FIM_GUARDED_BY(mutex_);
  bool cancelled_ FIM_GUARDED_BY(mutex_) = false;
  std::atomic<std::uint64_t> events_{0};  // bumped after each change
};

}  // namespace

void RunTasksInOrder(std::size_t num_tasks, std::size_t workers,
                     const TaskMiner& mine, const ClosedSetCallback& callback) {
  FIM_CHECK(workers > 0 || num_tasks == 0) << "tasks but no worker";
  TaskQueues queues(num_tasks);
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(workers);  // one slot per thread
  auto worker = [&](std::size_t w) {
    for (std::size_t t = next.fetch_add(1); t < num_tasks;
         t = next.fetch_add(1)) {
      try {
        Chunk chunk;
        const ClosedSetCallback sink = [&](std::span<const ItemId> set,
                                           Support support) {
          chunk.AddRow(set, support);
          if (chunk.items.size() * sizeof(ItemId) >= kChunkBytes) {
            queues.Publish(t, std::exchange(chunk, {}));
          }
        };
        mine(w, t, sink);
        queues.Publish(t, std::move(chunk));
      } catch (...) {
        errors[w] = std::current_exception();
        next.store(num_tasks);
        queues.Cancel();
        return;
      }
      queues.Close(t);
    }
  };
  std::exception_ptr callback_error;
  {
    // jthreads join on every exit from this scope, a failed start too.
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker, w);
    try {
      std::vector<Chunk> chunks;
      for (std::size_t t = 0; t < num_tasks; ++t) {
        while (queues.Take(t, &chunks)) {
          for (const Chunk& sets : chunks) {
            for (std::size_t r = 0; r < sets.NumRows(); ++r) {
              callback(sets.Row(r), sets.weights[r]);
            }
          }
          chunks.clear();
        }
      }
    } catch (...) {
      callback_error = std::current_exception();
      next.store(num_tasks);
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  if (callback_error) std::rethrow_exception(callback_error);
}

}  // namespace fim
