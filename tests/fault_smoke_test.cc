// Runs the end-to-end fault-injection campaign (src/fuzz/fault_fuzz.h) as a
// gtest so a plain `ctest` exercises the full service layer: mutated
// CSV/DDL, ReadCsvFile with io faults armed, and Predict under randomized
// RunContext budgets/deadlines with candidates.exhausted / parallel.task
// armed. The standalone autobi_faultfuzz binary runs the same campaign under
// ASan/UBSan in the AUTOBI_FAULT_SMOKE=1 CI stage.

#include <gtest/gtest.h>

#include "fuzz/fault_fuzz.h"

namespace autobi {
namespace {

TEST(FaultFuzzSmoke, ThousandCasesNoInvariantViolations) {
  FaultFuzzOptions options;
  options.seed = 20260807;
  options.cases = 1000;
  FaultFuzzReport report = RunFaultFuzz(options);
  EXPECT_EQ(report.failures, 0) << FormatFaultFuzzReport(report);
  EXPECT_EQ(report.cases_run, 1000);
  // The scenario mix must actually cover every surface.
  EXPECT_GT(report.csv_cases, 0);
  EXPECT_GT(report.ddl_cases, 0);
  EXPECT_GT(report.file_cases, 0);
  EXPECT_GT(report.pipeline_cases, 0);
  EXPECT_GT(report.schema_evolution_cases, 0);
  EXPECT_GT(report.injected_faults, 0);
  EXPECT_GT(report.degraded_models, 0);
}

// The dedicated schema-evolution campaign: every case replays a mutation
// sequence through PredictIncremental and cross-checks a cold Predict after
// each step. Any incremental/cold divergence is an invariant violation.
TEST(FaultFuzzSmoke, SchemaEvolutionDifferentialCampaign) {
  FaultFuzzOptions options;
  options.seed = 20260808;
  options.cases = 150;
  options.scenario = "schema";
  FaultFuzzReport report = RunFaultFuzz(options);
  EXPECT_EQ(report.failures, 0) << FormatFaultFuzzReport(report);
  EXPECT_EQ(report.schema_evolution_cases, 150);
}

// Every field of two reports but the wall time.
void ExpectSameReport(const FaultFuzzReport& a, const FaultFuzzReport& b) {
  EXPECT_EQ(a.cases_run, b.cases_run);
  EXPECT_EQ(a.csv_cases, b.csv_cases);
  EXPECT_EQ(a.ddl_cases, b.ddl_cases);
  EXPECT_EQ(a.file_cases, b.file_cases);
  EXPECT_EQ(a.pipeline_cases, b.pipeline_cases);
  EXPECT_EQ(a.serve_cases, b.serve_cases);
  EXPECT_EQ(a.schema_evolution_cases, b.schema_evolution_cases);
  EXPECT_EQ(a.lake_cases, b.lake_cases);
  EXPECT_EQ(a.crash_cases, b.crash_cases);
  EXPECT_EQ(a.status_errors, b.status_errors);
  EXPECT_EQ(a.parses_ok, b.parses_ok);
  EXPECT_EQ(a.degraded_models, b.degraded_models);
  EXPECT_EQ(a.injected_faults, b.injected_faults);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.time_budget_hit, b.time_budget_hit);
  EXPECT_EQ(a.failure_messages, b.failure_messages);
}

// A campaign reproduces from its seed: the mixed campaign, and the schema
// campaign, whose parallel.task faults fire inside multi-threaded scoring
// regions (the pool decides which thread takes which index, so the fault
// must not depend on it).
TEST(FaultFuzzSmoke, DeterministicAcrossRuns) {
  FaultFuzzOptions options;
  options.seed = 42;
  options.cases = 120;
  FaultFuzzReport a = RunFaultFuzz(options);
  FaultFuzzReport b = RunFaultFuzz(options);
  EXPECT_EQ(a.failures, 0) << FormatFaultFuzzReport(a);
  ExpectSameReport(a, b);

  options.seed = 1;
  options.cases = 2000;
  options.scenario = "schema";
  FaultFuzzReport schema_a = RunFaultFuzz(options);
  FaultFuzzReport schema_b = RunFaultFuzz(options);
  EXPECT_EQ(schema_a.failures, 0) << FormatFaultFuzzReport(schema_a);
  EXPECT_GT(schema_a.status_errors, 0);
  ExpectSameReport(schema_a, schema_b);
}

}  // namespace
}  // namespace autobi
