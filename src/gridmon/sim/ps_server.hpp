#pragma once

/// \file ps_server.hpp
/// Processor-sharing service center.
///
/// Models a resource with total service rate `total_rate` (units/second)
/// shared by up to `max_parallel` jobs at full single-job speed; with n >
/// max_parallel concurrent jobs each gets total_rate/n. Optionally each job
/// is capped at `per_job_cap` units/second (e.g. a TCP flow over a WAN).
///
/// Used for: CPUs (rate = #cores cpu-seconds/second, max_parallel = #cores)
/// and network links (rate = bytes/second, max_parallel = 1). Jobs interact
/// via `co_await ps.consume(amount)` which suspends until `amount` units of
/// service have been delivered under the fluid-sharing model.
///
/// Two execution modes share the public API:
///
/// * **Exact mode** (populations up to kVirtualThreshold): every arrival
///   and departure settles the elapsed service into each job's `remaining`
///   with the same floating-point operation sequence as the original
///   implementation, so reference experiments stay bit-identical. O(n) per
///   event, but over a contiguous vector.
/// * **Virtual-time mode** (beyond the threshold, one-way switch): jobs
///   carry a completion target on a shared service curve `v(t)` that
///   advances at the cached per-job rate; an arrival or departure updates
///   `v` in O(1) and maintains a min-heap keyed by (target, seq). O(log n)
///   per event, which is what makes 100k-user sweeps tractable. Results in
///   this mode differ from exact mode only by sub-nanosecond rounding in
///   completion times.
///
/// The bottleneck rate is cached in both modes and recomputed only when
/// the population or the configured rate changes.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <vector>

#include "gridmon/sim/probe.hpp"
#include "gridmon/sim/simulation.hpp"

namespace gridmon::sim {

class PsServer {
 public:
  /// Population at which the server leaves exact mode. Far above anything
  /// the paper-scale experiments reach (their servers peak near 550
  /// concurrent jobs), so those runs keep byte-identical outputs; the
  /// 100k-user sweeps cross it on the shared links and switch to O(log n).
  static constexpr std::size_t kVirtualThreshold = 2048;

  PsServer(Simulation& sim, double total_rate, int max_parallel,
           double per_job_cap = std::numeric_limits<double>::infinity())
      : sim_(sim),
        total_rate_(total_rate),
        max_parallel_(max_parallel),
        per_job_cap_(per_job_cap) {
    assert(total_rate > 0 && max_parallel > 0 && per_job_cap > 0);
  }
  PsServer(const PsServer&) = delete;
  PsServer& operator=(const PsServer&) = delete;

  /// Number of jobs currently in service.
  int active_jobs() const noexcept {
    return static_cast<int>(virtual_mode_ ? vheap_.size() : jobs_.size());
  }

  /// Total service units delivered so far (for utilization sampling:
  /// utilization over [t0,t1] = delta(served)/(total_rate*(t1-t0))).
  double served_total() const {
    double elapsed = sim_.now() - last_update_;
    std::size_t n = virtual_mode_ ? vheap_.size() : jobs_.size();
    return served_total_ +
           current_rate_per_job() * static_cast<double>(n) * elapsed;
  }

  double total_rate() const noexcept { return total_rate_; }

  /// True once the server has switched to the virtual-time service curve.
  bool virtual_mode() const noexcept { return virtual_mode_; }

  /// Change the total service rate mid-run (link degradation, slow host).
  /// Work already delivered is settled at the old rate; in-flight jobs
  /// continue at the new rate.
  void set_total_rate(double rate) {
    assert(rate > 0);
    if (virtual_mode_) {
      advance_v();
      total_rate_ = rate;
      rate_ = current_rate_per_job();
      vreschedule();
    } else {
      settle();
      total_rate_ = rate;
      reschedule();
    }
  }

  /// Attach (or detach with nullptr) a population probe: fired on every
  /// arrival and departure with the job count and remaining backlog.
  void set_probe(UsageProbe* probe) noexcept { probe_ = probe; }

  struct ConsumeAwaiter {
    PsServer& ps;
    double amount;
    bool await_ready() const noexcept { return amount <= 0; }
    void await_suspend(std::coroutine_handle<> h) { ps.add_job(amount, h); }
    void await_resume() const noexcept {}
  };

  /// Suspend until `amount` units of service have been delivered.
  ConsumeAwaiter consume(double amount) noexcept {
    return ConsumeAwaiter{*this, amount};
  }

 private:
  struct Job {
    double remaining;
    double eps;  // completion threshold to absorb float error
    std::coroutine_handle<> handle;
  };
  /// A job on the virtual-time curve: done when v_ reaches `target`.
  struct VJob {
    double target;
    double eps;
    std::uint64_t seq;  // arrival order, for FIFO completion ties
    std::coroutine_handle<> handle;
  };

  static double finish_eps(double amount) {
    return 1e-9 * (1.0 + std::abs(amount));
  }

  /// Residual service below this much time is completed rather than
  /// rescheduled (see complete_ready_jobs).
  static constexpr double kMinServiceDt = 1e-9;

  /// Per-job service rate given the current population.
  double current_rate_per_job() const noexcept {
    std::size_t n = virtual_mode_ ? vheap_.size() : jobs_.size();
    if (n == 0) return 0;
    double fair = (n <= static_cast<std::size_t>(max_parallel_))
                      ? total_rate_ / max_parallel_
                      : total_rate_ / static_cast<double>(n);
    return fair < per_job_cap_ ? fair : per_job_cap_;
  }

  void add_job(double amount, std::coroutine_handle<> h) {
    if (virtual_mode_) {
      advance_v();
      vpush(VJob{v_ + amount, finish_eps(amount), next_job_seq_++, h});
      rate_ = current_rate_per_job();
      vreschedule();
      notify_probe();
      return;
    }
    settle();
    jobs_.push_back(Job{amount, finish_eps(amount), h});
    if (jobs_.size() >= kVirtualThreshold) {
      switch_to_virtual();
    } else {
      reschedule();
    }
    notify_probe();
  }

  // ---- Exact mode (byte-identical to the reference implementation) ----

  /// Apply service delivered since last_update_ to all jobs.
  void settle() {
    SimTime now = sim_.now();
    double elapsed = now - last_update_;
    if (elapsed > 0 && !jobs_.empty()) {
      double r = current_rate_per_job();
      for (auto& job : jobs_) job.remaining -= r * elapsed;
      served_total_ += r * static_cast<double>(jobs_.size()) * elapsed;
    }
    last_update_ = now;
  }

  /// Schedule the next completion event (invalidates any earlier one via
  /// the generation counter).
  void reschedule() {
    ++generation_;
    if (jobs_.empty()) return;
    double r = current_rate_per_job();
    double min_remaining = std::numeric_limits<double>::infinity();
    for (const auto& job : jobs_) {
      double left = job.remaining > 0 ? job.remaining : 0;
      if (left < min_remaining) min_remaining = left;
    }
    SimTime dt = min_remaining / r;
    std::uint64_t gen = generation_;
    sim_.schedule(dt, [this, gen] { on_completion_event(gen); });
  }

  void on_completion_event(std::uint64_t gen) {
    if (gen != generation_) return;  // superseded by a later arrival
    settle();
    // A job also counts as done when its residual service is under one
    // nanosecond of work: at large simulated times such a sliver needs a
    // dt below the clock's floating-point resolution, and rescheduling it
    // would freeze simulated time in a same-timestamp event loop.
    double rate = current_rate_per_job();
    double sliver = rate * kMinServiceDt;
    std::vector<std::coroutine_handle<>> finished = take_scratch();
    std::size_t out = 0;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i].remaining <= std::max(jobs_[i].eps, sliver)) {
        finished.push_back(jobs_[i].handle);
      } else {
        if (out != i) jobs_[out] = jobs_[i];
        ++out;
      }
    }
    jobs_.resize(out);
    reschedule();
    if (!finished.empty()) notify_probe();
    // Resuming may re-enter consume()/settle(); the job list is already
    // consistent at this point.
    for (auto h : finished) h.resume();
    put_scratch(std::move(finished));
  }

  // ---- Virtual-time mode ----

  /// Advance the shared service curve to the current time at the cached
  /// per-job rate. O(1) — this is the whole point of the mode.
  void advance_v() {
    SimTime now = sim_.now();
    double elapsed = now - last_update_;
    if (elapsed > 0 && !vheap_.empty()) {
      v_ += rate_ * elapsed;
      served_total_ += rate_ * static_cast<double>(vheap_.size()) * elapsed;
    }
    last_update_ = now;
  }

  void vreschedule() {
    ++generation_;
    if (vheap_.empty()) {
      // Resetting the curve on drain bounds floating-point error growth.
      v_ = 0;
      return;
    }
    double gap = vheap_.front().target - v_;
    SimTime dt = gap > 0 ? gap / rate_ : 0;
    std::uint64_t gen = generation_;
    sim_.schedule(dt, [this, gen] { on_v_completion_event(gen); });
  }

  void on_v_completion_event(std::uint64_t gen) {
    if (gen != generation_) return;
    advance_v();
    double sliver = rate_ * kMinServiceDt;
    // Harvest every job whose target the curve has (to within its epsilon)
    // reached. Resume in arrival order, matching the FIFO discipline of
    // exact mode.
    finished_vjobs_.clear();
    while (!vheap_.empty()) {
      const VJob& top = vheap_.front();
      if (top.target - v_ > std::max(top.eps, sliver)) break;
      finished_vjobs_.push_back(top);
      vpop();
    }
    if (finished_vjobs_.empty()) {
      vreschedule();
      return;
    }
    std::sort(finished_vjobs_.begin(), finished_vjobs_.end(),
              [](const VJob& a, const VJob& b) { return a.seq < b.seq; });
    rate_ = current_rate_per_job();
    vreschedule();
    notify_probe();
    std::vector<std::coroutine_handle<>> finished = take_scratch();
    for (const VJob& j : finished_vjobs_) finished.push_back(j.handle);
    finished_vjobs_.clear();
    for (auto h : finished) h.resume();
    put_scratch(std::move(finished));
  }

  /// One-way transition: convert the settled exact-mode jobs into targets
  /// on a fresh service curve (v_ = 0, target = remaining).
  void switch_to_virtual() {
    virtual_mode_ = true;
    v_ = 0;
    vheap_.reserve(jobs_.size() * 2);
    for (const Job& j : jobs_) {
      vpush(VJob{j.remaining, j.eps, next_job_seq_++, j.handle});
    }
    jobs_.clear();
    jobs_.shrink_to_fit();
    rate_ = current_rate_per_job();
    vreschedule();
  }

  // Min-heap over (target, seq) in a contiguous vector.
  static bool vearlier(const VJob& a, const VJob& b) noexcept {
    if (a.target != b.target) return a.target < b.target;
    return a.seq < b.seq;
  }

  void vpush(VJob j) {
    vheap_.push_back(j);
    std::size_t i = vheap_.size() - 1;
    while (i > 0) {
      std::size_t parent = (i - 1) / 2;
      if (!vearlier(j, vheap_[parent])) break;
      vheap_[i] = vheap_[parent];
      i = parent;
    }
    vheap_[i] = j;
  }

  void vpop() {
    VJob last = vheap_.back();
    vheap_.pop_back();
    if (vheap_.empty()) return;
    std::size_t i = 0;
    const std::size_t n = vheap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && vearlier(vheap_[child + 1], vheap_[child])) {
        ++child;
      }
      if (!vearlier(vheap_[child], last)) break;
      vheap_[i] = vheap_[child];
      i = child;
    }
    vheap_[i] = last;
  }

  // ---- Shared plumbing ----

  /// Report population and remaining backlog to the attached probe.
  /// Precondition: settle()/advance_v() has run at the current time.
  void notify_probe() {
    if (probe_ == nullptr) return;
    double backlog = 0;
    std::size_t n;
    if (virtual_mode_) {
      n = vheap_.size();
      for (const VJob& j : vheap_) {
        double left = j.target - v_;
        backlog += left > 0 ? left : 0;
      }
    } else {
      n = jobs_.size();
      for (const auto& job : jobs_) {
        backlog += job.remaining > 0 ? job.remaining : 0;
      }
    }
    probe_->on_usage(sim_.now(), static_cast<double>(n), backlog);
  }

  /// Reusable buffer for completion sweeps (avoids an allocation per
  /// departure batch). Swapped out while in use so re-entrant arrivals
  /// can't corrupt it.
  std::vector<std::coroutine_handle<>> take_scratch() noexcept {
    std::vector<std::coroutine_handle<>> v = std::move(scratch_);
    v.clear();
    return v;
  }
  // Sink parameter: the single caller hands the buffer back with
  // std::move, so by-value is a pointer swap, never an element copy; a
  // reference would reopen the re-entrancy hazard take_scratch exists to
  // close.
  void put_scratch(std::vector<std::coroutine_handle<>> v) noexcept {
    if (v.capacity() > scratch_.capacity()) scratch_ = std::move(v);
  }

  Simulation& sim_;
  double total_rate_;
  int max_parallel_;
  double per_job_cap_;
  std::vector<Job> jobs_;           // exact mode, insertion order
  std::vector<VJob> vheap_;         // virtual mode, heap order
  std::vector<VJob> finished_vjobs_;
  std::vector<std::coroutine_handle<>> scratch_;
  SimTime last_update_ = 0;
  double served_total_ = 0;
  double v_ = 0;     // virtual-time service curve (units per job)
  double rate_ = 0;  // cached per-job rate (virtual mode)
  std::uint64_t next_job_seq_ = 0;
  std::uint64_t generation_ = 0;
  bool virtual_mode_ = false;
  UsageProbe* probe_ = nullptr;
};

}  // namespace gridmon::sim
