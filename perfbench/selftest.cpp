// Self-tests of the benchmark's own helpers (harness.h): the percentile
// rule, due-time latency accounting, metric-name validation, the result
// line and span self times. Run before every benchmark run by run.py, and
// registered as the `perfbench_selftest` test of this CMake project.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile_rule() {
  // Highest percentile with at least ten samples beyond it.
  expect(tail_percentile_for(0) == 0.0, "no samples: no percentile");
  expect(tail_percentile_for(19) == 0.0, "19 samples: median lacks 10 beyond");
  expect(tail_percentile_for(20) == 50.0, "20 samples: p50");
  expect(tail_percentile_for(99) == 50.0, "99 samples: p90 has 9.9 beyond");
  expect(tail_percentile_for(100) == 90.0, "100 samples: p90");
  expect(tail_percentile_for(199) == 90.0, "199 samples: p95 has 9 beyond");
  expect(tail_percentile_for(200) == 95.0, "200 samples: p95");
  expect(tail_percentile_for(999) == 95.0, "999 samples: p99 has 9 beyond");
  expect(tail_percentile_for(1000) == 99.0, "1000 samples: p99");
  expect(tail_percentile_for(10000) == 99.9, "10000 samples: p99.9");

  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  expect(near(percentile_sorted(sorted, 50.0), 50.0), "nearest-rank p50");
  expect(near(percentile_sorted(sorted, 99.0), 99.0), "nearest-rank p99");
  expect(near(percentile_sorted(sorted, 100.0), 100.0), "p100 is the max");
  expect(near(percentile_sorted({7.0}, 99.0), 7.0), "single sample");
  expect(near(median({3.0, 1.0, 2.0}), 2.0), "odd median");
  expect(near(median({4.0, 1.0, 2.0, 3.0}), 2.5), "even median");

  expect(near(trimmed_mean({10.0, 1.0, 2.0, 3.0, 100.0}), 5.0),
         "trimmed mean drops the extremes");
  expect(near(trimmed_mean({1.0, 2.0, 6.0}), 3.0), "plain mean below five");
  expect(near(trimmed_mean({}), 0.0), "empty trimmed mean");

  const auto parts = split_even({1, 2, 3, 4, 5, 6, 7}, 3);
  expect(parts.size() == 3 && parts[0] == std::vector<double>{1, 2, 3} &&
             parts[1] == std::vector<double>{4, 5} &&
             parts[2] == std::vector<double>{6, 7},
         "split_even keeps order, first parts one longer");
}

void test_due_time_accounting() {
  DueTimeLog log;
  // Due at 1 ms, sent on time, answered at 3 ms: 2 ms.
  log.record(1'000'000, 1'000'000, 3'000'000, true);
  // Due at 2 ms but the generator stalled until 5 ms; answered at 6 ms. The
  // latency counts from the due time (4 ms), and lateness is 3000 us.
  log.record(2'000'000, 5'000'000, 6'000'000, true);
  // A failed request misses every limit.
  log.record(3'000'000, 3'000'000, 3'500'000, false);
  expect(log.size() == 3, "three records");
  expect(log.failed() == 1, "one failure");
  expect(near(log.latencies_ms()[0], 2.0), "latency from due time");
  expect(near(log.latencies_ms()[1], 4.0), "stall charged to the request");
  expect(std::isinf(log.latencies_ms()[2]), "failed request is infinite");
  expect(std::isinf(log.latency_ms(99.0)), "failure lands in the tail");
  expect(near(log.late_us(100.0), 3000.0), "generator lateness");
  expect(near(log.late_us(50.0), 0.0), "on-time sends are not late");

  DueTimeLog other;
  other.record(0, 0, 1'000'000, true);
  log.merge(other);
  expect(log.size() == 4 && log.failed() == 1, "merge keeps counts");

  DueTimeLog windows;
  for (std::uint64_t i = 10; i > 0; --i) {  // recorded out of due order
    windows.record(i * 1'000'000, i * 1'000'000, i * 1'000'000 + i * 100'000,
                   i != 9);
  }
  const auto split = windows.split(2);
  expect(split.size() == 2 && split[0].size() == 5 && split[1].size() == 5,
         "split into equal windows");
  expect(near(split[0].latency_ms(100.0), 0.5), "first window by due time");
  expect(split[1].failed() == 1 && split[0].failed() == 0,
         "failures stay in their window");

  DueTimeLog steady;
  DueTimeLog growing;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t due = i * 1'000'000;
    steady.record(due, due, due + 500'000, true);
    growing.record(due, due, due + 500'000 + i * 200'000, true);
  }
  expect(!steady.backlog_grew(1.0), "flat latency: no backlog");
  expect(growing.backlog_grew(1.0), "rising latency: backlog grew");
  expect(!growing.backlog_grew(100.0), "a rise below the threshold is kept");
}

void test_metric_names() {
  expect(valid_metric_name("setup_s"), "plain name");
  expect(valid_metric_name("placement.pack-to-full.place_ms"), "dots/dashes");
  expect(valid_metric_name("9lives"), "leading digit");
  expect(!valid_metric_name(""), "empty");
  expect(!valid_metric_name(".hidden"), "leading dot");
  expect(!valid_metric_name("-x"), "leading dash");
  expect(!valid_metric_name("a b"), "space");
  expect(!valid_metric_name("a/b"), "slash");
  expect(!valid_metric_name("p99%"), "percent");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters");
}

void test_result_line() {
  Outcome outcome;
  outcome.attempted = 3;
  outcome.failed = 1;
  outcome.add("latency_ms", 1.25, "ms");
  outcome.add("rate", 0.1, "1/s");
  expect(render_result_line(outcome) ==
             R"({"correct": true, "attempted": 3, "failed": 1, "metrics": )"
             R"({"latency_ms": {"value": 1.25, "unit": "ms"}, )"
             R"("rate": {"value": 0.10000000000000001, "unit": "1/s"}}})",
         "result line layout, all digits");
}

void test_span_self_time() {
  Tracer tracer;
  {
    Tracer::Scope outer(tracer, "outer");
    { Tracer::Scope inner(tracer, "inner"); }
    { Tracer::Scope inner(tracer, "inner"); }
  }
  expect(tracer.spans().size() == 3, "three spans");
  expect(tracer.spans()[1].parent == 0 && tracer.spans()[2].parent == 0,
         "children point at their parent");
  expect(tracer.durations_ms("inner").size() == 2, "two inner durations");
  const std::string json = tracer.render_json();
  expect(json.find("\"name\": \"outer\", \"parent\": -1") != std::string::npos,
         "span JSON carries name and parent");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_due_time_accounting();
  test_metric_names();
  test_result_line();
  test_span_self_time();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  return 0;
}
