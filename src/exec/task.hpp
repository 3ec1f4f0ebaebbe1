// Minimal coroutine task type for SPMD node programs.
//
// Each rank of an execution backend runs an `exec::Task` coroutine. Tasks
// are eagerly-started by the backend, may co_await other Tasks, and
// propagate exceptions to the awaiter / the backend. An awaited task runs
// inside its awaiter's await_suspend; when it finishes without suspending
// (the common case: no blocking receive on the way) the awaiter simply
// continues, so a loop of awaited calls uses constant machine stack even
// where the compiler does not turn a symmetric transfer into a tail call
// (sanitizer builds). Only a task that suspended resumes its awaiter by
// symmetric transfer.
//
// The same coroutine runs on every backend: on the deterministic simulator
// (src/sim) a blocking receive suspends the coroutine until the engine
// schedules the matching message; on the real multi-threaded runtime
// (exec/threaded.hpp, the mp and shm backends) the receive blocks the
// rank's OS thread inside the awaiter and the coroutine never actually
// suspends mid-receive.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace dhpf::exec {

class [[nodiscard]] Task {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation;  // who to resume when we finish
    bool awaiter_running = false;          // the awaiter is still in await_suspend
    std::exception_ptr exception;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        const auto& pr = h.promise();
        if (pr.awaiter_running || !pr.continuation) return std::noop_coroutine();
        return pr.continuation;
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool done() const { return !handle_ || handle_.done(); }
  [[nodiscard]] std::coroutine_handle<promise_type> handle() const { return handle_; }

  /// Rethrow any exception that escaped the task body (call once done()).
  void rethrow_if_failed() const {
    if (handle_ && handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
  }

  /// Awaiting a task runs it to completion (suspending the awaiter across
  /// any blocking communication the task performs).
  auto operator co_await() & noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const noexcept { return !child || child.done(); }
      bool await_suspend(std::coroutine_handle<> parent) noexcept {
        auto& pr = child.promise();
        pr.continuation = parent;
        pr.awaiter_running = true;
        child.resume();
        pr.awaiter_running = false;
        return !child.done();  // finished: continue the parent on this stack
      }
      void await_resume() const {
        if (child && child.promise().exception)
          std::rethrow_exception(child.promise().exception);
      }
    };
    return Awaiter{handle_};
  }
  auto operator co_await() && noexcept {
    // The temporary Task lives for the whole co_await full-expression (and
    // across suspension, since it is part of the coroutine frame), so the
    // lvalue awaiter is safe to reuse.
    return static_cast<Task&>(*this).operator co_await();
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace dhpf::exec
