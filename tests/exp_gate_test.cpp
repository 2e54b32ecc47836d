// exp::Gate: check semantics (floors, ceilings, byte-compares), the exact
// gates_passed/gates_failed telemetry, and the gate-suite path helpers.
#include "exp/gate.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "util/telemetry.h"

namespace {

using namespace epserve;

TEST(ExpGate, AllChecksPassingExitsZero) {
  exp::Gate gate("unit_bench");
  EXPECT_TRUE(gate.floor("speedup", 4.2, 3.0));
  EXPECT_TRUE(gate.ceiling("wall", 1.5, 30.0));
  EXPECT_TRUE(gate.bytes_equal("render", "same bytes", "same bytes"));
  EXPECT_TRUE(gate.require("predicate", true, "held"));
  EXPECT_TRUE(gate.passed());
  EXPECT_EQ(gate.finish(), 0);
  ASSERT_EQ(gate.checks().size(), 4u);
  for (const auto& check : gate.checks()) EXPECT_TRUE(check.passed);
}

TEST(ExpGate, BoundaryValuesPass) {
  exp::Gate gate("unit_bench");
  EXPECT_TRUE(gate.floor("at the floor", 3.0, 3.0));
  EXPECT_TRUE(gate.ceiling("at the ceiling", 30.0, 30.0));
  EXPECT_EQ(gate.finish(), 0);
}

TEST(ExpGate, AnyFailingCheckExitsOne) {
  exp::Gate gate("unit_bench");
  EXPECT_TRUE(gate.floor("speedup", 4.0, 3.0));
  EXPECT_FALSE(gate.floor("below floor", 2.9, 3.0));
  EXPECT_FALSE(gate.passed());
  EXPECT_EQ(gate.finish(), 1);
  ASSERT_EQ(gate.checks().size(), 2u);
  EXPECT_TRUE(gate.checks()[0].passed);
  EXPECT_FALSE(gate.checks()[1].passed);
  // The detail names both the measured value and the floor.
  EXPECT_NE(gate.checks()[1].detail.find("2.90"), std::string::npos);
  EXPECT_NE(gate.checks()[1].detail.find("3.00"), std::string::npos);
}

TEST(ExpGate, SpanBytesCompareIsExact) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {1.0, 2.0, 3.0};
  const std::vector<double> c = {1.0, 2.0, 3.0000000001};
  const std::vector<double> shorter = {1.0, 2.0};
  exp::Gate gate("unit_bench");
  EXPECT_TRUE(gate.bytes_equal("equal", std::span<const double>(a),
                               std::span<const double>(b)));
  EXPECT_FALSE(gate.bytes_equal("near is not equal",
                                std::span<const double>(a),
                                std::span<const double>(c)));
  EXPECT_FALSE(gate.bytes_equal("size mismatch", std::span<const double>(a),
                                std::span<const double>(shorter)));
  EXPECT_TRUE(gate.bytes_equal("both empty", std::span<const double>(),
                               std::span<const double>()));
}

TEST(ExpGate, TelemetryCountersAreExact) {
  telemetry::reset();
  telemetry::set_enabled(true);
  exp::Gate gate("unit_bench");
  gate.floor("a", 2.0, 1.0);
  gate.ceiling("b", 1.0, 2.0);
  gate.require("c", true);
  gate.floor("d", 0.5, 1.0);  // the one failure
  telemetry::set_enabled(false);
  const auto snap = telemetry::snapshot();
  const auto* passed = snap.find_counter("exp.gates_passed");
  ASSERT_NE(passed, nullptr);
  EXPECT_EQ(passed->value, 3u);
  const auto* failed = snap.find_counter("exp.gates_failed");
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->value, 1u);
  telemetry::reset();
}

TEST(ExpGateSuite, GatingBenchRosterIsStable) {
  const auto benches = exp::gating_benches();
  ASSERT_EQ(benches.size(), 5u);
  EXPECT_EQ(benches.front(), "bench_columnar_groupby");
  EXPECT_EQ(benches.back(), "bench_population_scale");
}

TEST(ExpGateSuite, DatedSnapshotPathHandlesBareFilenames) {
  // The old shell harness wrote "/BENCH_<date>.json" (filesystem root!)
  // when the output path had no directory component.
  EXPECT_EQ(exp::dated_snapshot_path("BENCH_baseline.json", "20260101"),
            "BENCH_20260101.json");
  EXPECT_EQ(exp::dated_snapshot_path("out/BENCH_baseline.json", "20260101"),
            "out/BENCH_20260101.json");
  EXPECT_EQ(exp::dated_snapshot_path("/abs/dir/base.json", "20260101"),
            "/abs/dir/BENCH_20260101.json");
}

TEST(ExpGateSuite, MissingBinaryIsNotFound) {
  exp::GateSuiteOptions options;
  options.build_dir = "/nonexistent-build-dir";
  auto status = exp::run_gate_suite(options);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("bench_columnar_groupby"),
            std::string::npos);
}

}  // namespace
