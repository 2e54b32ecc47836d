#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t heap_bytes_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::uint64_t>(info.uordblks + info.hblkhd);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

/// ceil(p% of n), tolerant of the rounding in p / 100 * n (0.99 * 100 must
/// give rank 99, not 100).
double nearest_rank(double p, std::size_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-6);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = nearest_rank(p, sorted.size());
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double trimmed_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t trim = values.size() >= 5 ? 1 : 0;
  double sum = 0.0;
  for (std::size_t i = trim; i + trim < values.size(); ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * trim);
}

std::vector<std::vector<double>> split_even(const std::vector<double>& values,
                                            std::size_t parts) {
  std::vector<std::vector<double>> out(std::max<std::size_t>(parts, 1));
  const std::size_t base = values.size() / out.size();
  const std::size_t extra = values.size() % out.size();
  std::size_t next = 0;
  for (std::size_t part = 0; part < out.size(); ++part) {
    const std::size_t size = base + (part < extra ? 1 : 0);
    out[part].assign(values.begin() + static_cast<std::ptrdiff_t>(next),
                     values.begin() + static_cast<std::ptrdiff_t>(next + size));
    next += size;
  }
  return out;
}

double tail_percentile_for(std::size_t samples) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    // Samples strictly above the nearest-rank percentile.
    if (static_cast<double>(samples) - nearest_rank(p, samples) >= 10.0) {
      return p;
    }
  }
  return 0.0;
}

void DueTimeLog::record(std::uint64_t due_ns, std::uint64_t sent_ns,
                        std::uint64_t done_ns, bool ok) {
  due_ns_.push_back(due_ns);
  late_us_.push_back(sent_ns > due_ns
                         ? static_cast<double>(sent_ns - due_ns) * 1e-3
                         : 0.0);
  if (ok) {
    latency_ms_.push_back(
        done_ns > due_ns ? static_cast<double>(done_ns - due_ns) * 1e-6 : 0.0);
  } else {
    latency_ms_.push_back(kFailedLatency);
    ++failed_;
  }
}

void DueTimeLog::merge(const DueTimeLog& other) {
  due_ns_.insert(due_ns_.end(), other.due_ns_.begin(), other.due_ns_.end());
  latency_ms_.insert(latency_ms_.end(), other.latency_ms_.begin(),
                     other.latency_ms_.end());
  late_us_.insert(late_us_.end(), other.late_us_.begin(), other.late_us_.end());
  failed_ += other.failed_;
}

double DueTimeLog::latency_ms(double p) const {
  std::vector<double> sorted = latency_ms_;
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

double DueTimeLog::late_us(double p) const {
  std::vector<double> sorted = late_us_;
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

std::vector<std::size_t> DueTimeLog::due_order() const {
  std::vector<std::size_t> order(due_ns_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return due_ns_[a] < due_ns_[b];
                   });
  return order;
}

std::vector<DueTimeLog> DueTimeLog::split(std::size_t parts) const {
  std::vector<DueTimeLog> out(std::max<std::size_t>(parts, 1));
  const std::vector<std::size_t> order = due_order();
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    DueTimeLog& part = out[k * out.size() / order.size()];
    part.due_ns_.push_back(due_ns_[i]);
    part.latency_ms_.push_back(latency_ms_[i]);
    part.late_us_.push_back(late_us_[i]);
    if (std::isinf(latency_ms_[i])) ++part.failed_;
  }
  return out;
}

bool DueTimeLog::backlog_grew(double rise_ms) const {
  const std::size_t n = due_ns_.size();
  if (n < 10) return false;
  const std::vector<std::size_t> order = due_order();
  const std::size_t fifth = n / 5;
  std::vector<double> first;
  std::vector<double> last;
  for (std::size_t i = 0; i < fifth; ++i) {
    first.push_back(latency_ms_[order[i]]);
    last.push_back(latency_ms_[order[n - fifth + i]]);
  }
  return median(last) > median(first) + rise_ms;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Outcome::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Outcome::fail_check(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

namespace {

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string render_result_line(const Outcome& outcome) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + format_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

Tracer::Scope::Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
  SpanRecord span;
  span.name = std::move(name);
  span.parent = tracer_.open_.empty()
                    ? -1
                    : static_cast<std::int64_t>(tracer_.open_.back());
  span.start_ns = now_ns();
  index_ = tracer_.spans_.size();
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
}

double Tracer::Scope::close() {
  SpanRecord& span = tracer_.spans_[index_];
  if (open_) {
    span.end_ns = now_ns();
    open_ = false;
    // Scopes nest, so this span is the innermost open one.
    tracer_.open_.pop_back();
  }
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name && span.end_ns >= span.start_ns && span.end_ns != 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  return out;
}

double Tracer::median_ms(std::string_view name) const {
  return median(durations_ms(name));
}

std::string Tracer::render_json() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    const std::uint64_t total = span.end_ns - span.start_ns;
    if (i > 0) out += ",";
    out += "\n  {\"name\": \"" + span.name +
           "\", \"parent\": " + std::to_string(span.parent) +
           ", \"start_ns\": " + std::to_string(span.start_ns) +
           ", \"end_ns\": " + std::to_string(span.end_ns) +
           ", \"self_ns\": " +
           std::to_string(total > child_ns[i] ? total - child_ns[i] : 0) + "}";
  }
  out += "\n]";
  return out;
}

}  // namespace perfbench
