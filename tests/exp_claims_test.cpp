// The paper-claims registry (src/exp/claims.h): its entries are well formed,
// every shipped claim holds on the default seed, evaluation is
// deterministic, and an entry outside its accepted outcome fails the run.
#include <set>

#include <gtest/gtest.h>

#include "exp/claims.h"

namespace {

using namespace epserve;
using exp::Claim;
using exp::Outcome;

class ExpClaims : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto built = exp::build_claim_inputs();
    ASSERT_TRUE(built.ok()) << built.error().message;
    inputs_ = std::move(built).take();
  }
  static void TearDownTestSuite() { inputs_.reset(); }

  static std::unique_ptr<const exp::ClaimInputs> inputs_;
};

std::unique_ptr<const exp::ClaimInputs> ExpClaims::inputs_;

/// A test-local claim whose measure prints `text`.
Claim local_claim(std::string text, std::string paper, Outcome accepted) {
  return Claim{.id = "test.local",
               .experiment = "Test",
               .quantity = "a fixed value",
               .paper = std::move(paper),
               .measure =
                   [text = std::move(text)](const exp::ClaimInputs&) {
                     return exp::Measured{text, std::nullopt};
                   },
               .accepted = accepted,
               .note = {}};
}

TEST(ExpClaimsRegistry, EntriesAreWellFormed) {
  const auto& claims = exp::paper_claims();
  ASSERT_FALSE(claims.empty());
  std::set<std::string> ids;
  for (const auto& claim : claims) {
    EXPECT_TRUE(ids.insert(claim.id).second) << "duplicate id " << claim.id;
    EXPECT_FALSE(claim.experiment.empty()) << claim.id;
    EXPECT_FALSE(claim.quantity.empty()) << claim.id;
    EXPECT_FALSE(claim.paper.empty()) << claim.id;
    EXPECT_TRUE(claim.measure != nullptr) << claim.id;
    // A tolerance, a band or a contradicted shape says why in its note.
    const auto kind = claim.accepted.kind;
    if (kind == Outcome::Kind::kWithin || kind == Outcome::Kind::kBand ||
        (kind != Outcome::Kind::kPaper && !claim.accepted.holds)) {
      EXPECT_FALSE(claim.note.empty()) << claim.id;
    }
  }
}

TEST_F(ExpClaims, EveryShippedClaimHoldsAtTheDefaultSeed) {
  const auto report = exp::evaluate_claims(exp::paper_claims(), *inputs_);
  ASSERT_EQ(report.results.size(), exp::paper_claims().size());
  for (const auto& result : report.results) {
    EXPECT_TRUE(result.holds)
        << result.claim->id << ": measured '" << result.measured.text
        << "', accepted " << exp::render_outcome(result.claim->accepted);
  }
  EXPECT_TRUE(report.all_hold());
}

TEST_F(ExpClaims, TwoEvaluationsRenderIdenticalBytes) {
  auto rebuilt = exp::build_claim_inputs();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error().message;
  const auto first = exp::render_claims_markdown(
      exp::evaluate_claims(exp::paper_claims(), *inputs_));
  const auto second = exp::render_claims_markdown(
      exp::evaluate_claims(exp::paper_claims(), *rebuilt.value()));
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("| `fig1.sample` |"), std::string::npos);
}

TEST_F(ExpClaims, AnEntryOutsideItsBandFailsTheRun) {
  const std::vector<Claim> claims = {
      local_claim("0.50", "0.50", Outcome{}),
      local_claim("0.75", "0.50",
                  Outcome{.kind = Outcome::Kind::kBand, .lo = 0.4, .hi = 0.6})};
  const auto report = exp::evaluate_claims(claims, *inputs_);
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_TRUE(report.results[0].holds);
  EXPECT_FALSE(report.results[1].holds);
  EXPECT_FALSE(report.all_hold());
}

TEST_F(ExpClaims, OutcomesJudgeThePrintedNumbers) {
  using K = Outcome::Kind;
  const auto holds = [this](const std::string& text, const std::string& paper,
                            Outcome accepted) {
    const std::vector<Claim> claims = {local_claim(text, paper, accepted)};
    return exp::evaluate_claims(claims, *inputs_).results[0].holds;
  };
  // `= paper`: rounded to the paper's decimals, with the same text around.
  EXPECT_TRUE(holds("1.020 / 12212", "1.02 / 12212", {}));
  EXPECT_TRUE(holds("74 (15.51%)", "74 (15.5%)", {}));
  EXPECT_FALSE(holds("0.29", "0.30", {}));
  EXPECT_FALSE(holds("1.02 W", "1.02 GB", {}));
  EXPECT_FALSE(holds("1.02", "1.02 / 3", {}));
  // Signs, and a hyphen between digits that is not one.
  EXPECT_TRUE(holds("-10.17%", "-10.2%", {}));
  EXPECT_TRUE(
      holds("59.88%", "+48.65%", {.kind = K::kWithin, .tolerance = 12}));
  EXPECT_FALSE(holds("2004-2012", "2004 / -2012", {}));
  // Shapes of a printed list, and the expected "not" of a contradicted one.
  EXPECT_TRUE(holds("1 / 2 / 3", "rises", {.kind = K::kRising}));
  EXPECT_FALSE(holds("1 / 3 / 2", "rises", {.kind = K::kRising}));
  EXPECT_TRUE(
      holds("1 / 3 / 2", "rises", {.kind = K::kRising, .holds = false}));
  EXPECT_TRUE(holds("3 / 2", "falls", {.kind = K::kFalling}));
  // One number has no shape, so it passes neither a shape nor its "not".
  EXPECT_FALSE(holds("5", "rises", {.kind = K::kRising, .holds = false}));
  EXPECT_FALSE(holds("5", "falls", {.kind = K::kFalling, .holds = false}));
  // An empty or non-numeric measurement never passes a numeric outcome.
  EXPECT_FALSE(holds("", "0.5", {.kind = K::kBand, .lo = 0, .hi = 1}));
}

}  // namespace
