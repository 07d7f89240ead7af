#ifndef AUTOBI_COMMON_TIMER_H_
#define AUTOBI_COMMON_TIMER_H_

#include <chrono>

namespace autobi {

// Simple wall-clock stopwatch used by the latency experiments (Figures 5/6,
// Table 9).
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  // Elapsed time since construction, in seconds.
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace autobi

#endif  // AUTOBI_COMMON_TIMER_H_
