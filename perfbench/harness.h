// Shared helpers of the repository benchmark (perfbench/README.md): the
// percentile rule, due-time latency accounting for open-loop load, metric
// naming, the benchmark's own span recorder, and the one-line JSON result.
// Every rule here is pinned by selftest.cpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- Clocks and process measurements ----------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Seconds elapsed since `start_ns` (a now_ns() reading).
inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Peak resident set size of this process, in MiB (getrusage).
double peak_rss_mb();

/// Bytes currently allocated through malloc (mallinfo2): in-use arena
/// blocks plus mmap'd chunks. Differences of two readings size an object.
std::uint64_t heap_bytes_in_use();

// --- Percentiles -------------------------------------------------------------

/// Median of `values` (mean of the middle pair for even counts); 0 if empty.
double median(std::vector<double> values);

/// Nearest-rank percentile of ascending `sorted` data: the smallest sample
/// with at least p% of the samples at or below it. 0 if empty.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// Splits `values` (in measurement order) into `parts` consecutive runs of
/// equal size (the first few one longer when it does not divide).
std::vector<std::vector<double>> split_even(const std::vector<double>& values,
                                            std::size_t parts);

/// The mean of `values` without their lowest and highest entry (plain mean
/// below five values). Applied to per-window statistics it averages over
/// the machine's slow and fast spells, which a median snaps to, while one
/// stalled window cannot move it much.
double trimmed_mean(std::vector<double> values);

/// The reporting rule for a latency tail: the highest of the standard
/// percentiles {99.9, 99, 95, 90, 50} that has at least ten samples beyond
/// it, i.e. n * (1 - p/100) >= 10. Returns 0 when even the median lacks ten
/// samples beyond it (n < 20).
double tail_percentile_for(std::size_t samples);

// --- Open-loop latency accounting --------------------------------------------

/// A failed or refused request's latency: it misses any latency limit.
inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Latencies of one open-loop run, each timed from the request's due time
/// (when the schedule said to send it), not from when it was actually
/// sent, so a stall also charges the requests queued behind it. Lateness
/// (send time minus due time) is kept separately to judge the generator.
class DueTimeLog {
 public:
  /// One completed request: due, actually sent, and answered (ns on one
  /// clock). `ok` false records the request as failed.
  void record(std::uint64_t due_ns, std::uint64_t sent_ns,
              std::uint64_t done_ns, bool ok);

  /// Merges another log (e.g. one per connection) into this one.
  void merge(const DueTimeLog& other);

  [[nodiscard]] std::size_t size() const { return latency_ms_.size(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Latencies in ms, failed requests as kFailedLatency, in record order.
  [[nodiscard]] const std::vector<double>& latencies_ms() const {
    return latency_ms_;
  }

  /// Percentile p of the due-time latencies, in ms.
  [[nodiscard]] double latency_ms(double p) const;

  /// The log split by due time into `parts` consecutive windows whose
  /// request counts differ by at most one.
  [[nodiscard]] std::vector<DueTimeLog> split(std::size_t parts) const;

  /// Percentile p of the generator's lateness, in microseconds.
  [[nodiscard]] double late_us(double p) const;

  /// True when the backlog grew over the run: the median latency of the
  /// last fifth of requests (by due time) exceeds that of the first fifth
  /// by more than `rise_ms`. A system keeping up shows no such trend.
  [[nodiscard]] bool backlog_grew(double rise_ms) const;

 private:
  /// Record indices in ascending due time.
  [[nodiscard]] std::vector<std::size_t> due_order() const;

  std::vector<std::uint64_t> due_ns_;
  std::vector<double> latency_ms_;
  std::vector<double> late_us_;
  std::uint64_t failed_ = 0;
};

// --- Metrics and the result line ---------------------------------------------

/// A metric name is 1-64 characters of [A-Za-z0-9_.-] and starts with a
/// letter or digit.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one benchmark run reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// Records a failed correctness check (stderr diagnostic, correct=false).
  void fail_check(const std::string& what);
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
/// Values print with 17 significant digits.
std::string render_result_line(const Outcome& outcome);

// --- The benchmark's own spans -----------------------------------------------

/// In-memory span recorder for the traced run: name, start, end and the
/// span that caused it, written out once when the run ends.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    std::int64_t parent = -1;  // index into spans(), -1 at top level
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  /// RAII span: opens on construction, closes on destruction (or close()).
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Ends the span now; returns its duration in ms.
    double close();

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
    bool open_ = true;
  };

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations (ms) of every closed span called `name`, in record order.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;

  /// Median duration (ms) of the spans called `name`.
  [[nodiscard]] double median_ms(std::string_view name) const;

  /// The spans as a JSON array of {name, parent, start_ns, end_ns, self_ns};
  /// self time is the duration minus the time covered by child spans.
  [[nodiscard]] std::string render_json() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  // stack of open span indices
};

}  // namespace perfbench
