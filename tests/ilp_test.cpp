// The exact-rational LP solver that backs the IPET WCET engine, with a
// focus on its edge lanes: infeasible systems, unbounded objectives,
// degenerate pivoting (Bland anti-cycling), rational overflow, fractional
// LP optima of known small ILPs, and the independent certificate verifier's
// rejection of corrupted primal and dual assignments, including feasible
// but suboptimal ones.
#include <gtest/gtest.h>

#include "ilp/rational.hpp"
#include "ilp/solver.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"

namespace vc::ilp {
namespace {

Constraint cons(std::vector<LinTerm> terms, Sense sense, Rat rhs,
                std::string tag = {}) {
  Constraint c;
  c.terms = std::move(terms);
  c.sense = sense;
  c.rhs = rhs;
  c.tag = std::move(tag);
  return c;
}

// -------------------------------------------------------------------- Rat

TEST(RatTest, ArithmeticIsExact) {
  const Rat third = Rat::fraction(1, 3);
  const Rat sixth = Rat::fraction(1, 6);
  EXPECT_EQ(third + sixth, Rat::fraction(1, 2));
  EXPECT_EQ(third - sixth, sixth);
  EXPECT_EQ(third * Rat(6), Rat(2));
  EXPECT_EQ(Rat(1) / Rat(3), third);
  EXPECT_EQ((-third).to_string(), "-1/3");
}

TEST(RatTest, NormalizesSignAndGcd) {
  EXPECT_EQ(Rat::fraction(2, -4), Rat::fraction(-1, 2));
  EXPECT_EQ(Rat::fraction(-6, -9), Rat::fraction(2, 3));
  EXPECT_EQ(Rat::fraction(0, -7), Rat(0));
  EXPECT_TRUE(Rat::fraction(8, 4).is_integer());
}

TEST(RatTest, FloorOnNegatives) {
  EXPECT_EQ(Rat::fraction(7, 2).floor(), 3);
  EXPECT_EQ(Rat::fraction(-7, 2).floor(), -4);
  EXPECT_EQ(Rat(5).floor(), 5);
}

TEST(RatTest, ComparisonsCrossMultiply) {
  EXPECT_LT(Rat::fraction(1, 3), Rat::fraction(1, 2));
  EXPECT_LT(Rat::fraction(-1, 2), Rat::fraction(-1, 3));
  EXPECT_LE(Rat::fraction(2, 4), Rat::fraction(1, 2));
  EXPECT_GT(Rat(1), Rat::fraction(999999, 1000000));
}

TEST(RatTest, OverflowIsDetectedNotWrapped) {
  const Rat big = Rat(INT64_MAX / 2);
  EXPECT_THROW((void)(big * Rat(4)), InternalError);
  EXPECT_THROW((void)(big + big + big), InternalError);
  // Denominator blowup: 1/p + 1/q with coprime p, q near 2^32 exceeds the
  // int64 denominator budget even though each operand is representable.
  const Rat a = Rat::fraction(1, (1LL << 31) - 1);  // Mersenne prime 2^31-1
  const Rat b = Rat::fraction(1, (1LL << 33) + 1);
  EXPECT_THROW((void)(a + b), InternalError);
  EXPECT_THROW((void)-Rat(INT64_MIN), InternalError);
}

TEST(RatTest, DivisionByZeroIsAnError) {
  EXPECT_THROW((void)(Rat(1) / Rat(0)), InternalError);
  EXPECT_THROW((void)Rat::fraction(1, 0), InternalError);
}

// --------------------------------------------------------------- simplex

TEST(SimplexTest, SolvesTextbookMaximum) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  → x=2, y=6, obj=36.
  Problem p;
  p.num_vars = 2;
  p.objective = {{0, Rat(3)}, {1, Rat(5)}};
  p.constraints = {
      cons({{0, Rat(1)}}, Sense::Le, Rat(4), "x-cap"),
      cons({{1, Rat(2)}}, Sense::Le, Rat(12), "y-cap"),
      cons({{0, Rat(3)}, {1, Rat(2)}}, Sense::Le, Rat(18), "mix"),
  };
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.objective, Rat(36));
  EXPECT_EQ(s.values[0], Rat(2));
  EXPECT_EQ(s.values[1], Rat(6));
  EXPECT_TRUE(check_certificate(p, s.values, s.duals, s.objective).empty());
}

TEST(SimplexTest, HandlesEqualityAndGeRows) {
  // max x + y  s.t. x + y = 10, x >= 3, y <= 4  → x=6, y=4 (any split works
  // for the objective; the equality pins the optimum at 10).
  Problem p;
  p.num_vars = 2;
  p.objective = {{0, Rat(1)}, {1, Rat(1)}};
  p.constraints = {
      cons({{0, Rat(1)}, {1, Rat(1)}}, Sense::Eq, Rat(10), "sum"),
      cons({{0, Rat(1)}}, Sense::Ge, Rat(3), "x-min"),
      cons({{1, Rat(1)}}, Sense::Le, Rat(4), "y-cap"),
  };
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.objective, Rat(10));
  EXPECT_TRUE(check_certificate(p, s.values, s.duals, s.objective).empty());
}

TEST(SimplexTest, NegativeRhsRowsAreNormalized) {
  // -x <= -5 is x >= 5 in disguise; exercises the sign-flip path.
  Problem p;
  p.num_vars = 1;
  p.objective = {{0, Rat(-1)}};  // maximize -x → minimize x
  p.constraints = {cons({{0, Rat(-1)}}, Sense::Le, Rat(-5), "neg-rhs")};
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.values[0], Rat(5));
  EXPECT_EQ(s.objective, Rat(-5));
}

TEST(SimplexTest, DetectsInfeasibleSystem) {
  // x <= 2 and x >= 5 cannot both hold.
  Problem p;
  p.num_vars = 1;
  p.objective = {{0, Rat(1)}};
  p.constraints = {
      cons({{0, Rat(1)}}, Sense::Le, Rat(2), "cap"),
      cons({{0, Rat(1)}}, Sense::Ge, Rat(5), "floor"),
  };
  EXPECT_EQ(solve(p).status, Status::Infeasible);
}

TEST(SimplexTest, DetectsUnboundedObjective) {
  // max x + y with only y capped: x grows without limit.
  Problem p;
  p.num_vars = 2;
  p.objective = {{0, Rat(1)}, {1, Rat(1)}};
  p.constraints = {cons({{1, Rat(1)}}, Sense::Le, Rat(3), "y-cap")};
  EXPECT_EQ(solve(p).status, Status::Unbounded);
}

TEST(SimplexTest, BlandRuleEscapesDegenerateCycling) {
  // Beale's classic cycling example: with Dantzig's most-negative rule a
  // simplex loops forever on these degenerate pivots; Bland's rule must
  // terminate at the optimum (objective 1/20 at x3 = 1, minimization form).
  // Stated as: min -3/4 x0 + 150 x1 - 1/50 x2 + 6 x3  (we maximize the
  // negation) subject to two degenerate rows and x2 <= ... (see Beale 1955 /
  // Chvátal ch. 3).
  Problem p;
  p.num_vars = 4;
  p.objective = {{0, Rat::fraction(3, 4)},
                 {1, Rat(-150)},
                 {2, Rat::fraction(1, 50)},
                 {3, Rat(-6)}};
  p.constraints = {
      cons({{0, Rat::fraction(1, 4)},
            {1, Rat(-60)},
            {2, Rat::fraction(-1, 25)},
            {3, Rat(9)}},
           Sense::Le, Rat(0), "r0"),
      cons({{0, Rat::fraction(1, 2)},
            {1, Rat(-90)},
            {2, Rat::fraction(-1, 50)},
            {3, Rat(3)}},
           Sense::Le, Rat(0), "r1"),
      cons({{2, Rat(1)}}, Sense::Le, Rat(1), "r2"),
  };
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.objective, Rat::fraction(1, 20));
  EXPECT_LT(s.pivots, 50);  // terminates promptly, no cycling
  EXPECT_TRUE(check_certificate(p, s.values, s.duals, s.objective).empty());
}

TEST(SimplexTest, EmptyProblemIsTriviallyOptimal) {
  Problem p;
  const Solution s = solve(p);
  EXPECT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.objective, Rat(0));
}

// ---------------------------------------------------- fractional LP roots
//
// The IPET bound is the floor of the certified LP maximum. On these small
// ILPs the LP optimum is fractional and its floor is the integer optimum.

TEST(FractionalRootTest, BoundIsFloorOfLpOptimum) {
  // max x + y s.t. 2x + 3y <= 12, 2x + y <= 6.5. The LP optimum is
  // (15/8, 11/4) with objective 37/8; the best integral point is (1, 3)
  // with objective 4.
  Problem p;
  p.num_vars = 2;
  p.objective = {{0, Rat(1)}, {1, Rat(1)}};
  p.constraints = {
      cons({{0, Rat(2)}, {1, Rat(3)}}, Sense::Le, Rat(12), "a"),
      cons({{0, Rat(2)}, {1, Rat(1)}}, Sense::Le, Rat::fraction(13, 2), "b"),
  };
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_FALSE(s.values[0].is_integer() && s.values[1].is_integer());
  EXPECT_EQ(s.objective, Rat::fraction(37, 8));
  EXPECT_EQ(s.objective.floor(), 4);
  EXPECT_TRUE(check_certificate(p, s.values, s.duals, s.objective).empty());
}

TEST(FractionalRootTest, KnapsackBoundIsFloorOfLpOptimum) {
  // 0/1 knapsack: values {10, 13, 7}, weights {3, 4, 2}, capacity 6. The
  // integer optimum picks items 1 and 3 (value 20); the LP takes a quarter
  // of item 2 on top (value 81/4).
  Problem p;
  p.num_vars = 3;
  p.objective = {{0, Rat(10)}, {1, Rat(13)}, {2, Rat(7)}};
  p.constraints = {
      cons({{0, Rat(3)}, {1, Rat(4)}, {2, Rat(2)}}, Sense::Le, Rat(6), "w"),
      cons({{0, Rat(1)}}, Sense::Le, Rat(1), "x0<=1"),
      cons({{1, Rat(1)}}, Sense::Le, Rat(1), "x1<=1"),
      cons({{2, Rat(1)}}, Sense::Le, Rat(1), "x2<=1"),
  };
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.objective, Rat::fraction(81, 4));
  EXPECT_EQ(s.objective.floor(), 20);
  EXPECT_TRUE(check_certificate(p, s.values, s.duals, s.objective).empty());
}

// ------------------------------------------------------------ certificate

TEST(CertificateTest, RejectsFeasibleSuboptimalFlow) {
  // max x + y s.t. x <= 1, y <= 1. The flow x = (0, 0) is feasible and its
  // claimed objective 0 is its own value, so only the dual side can tell
  // it is not the maximum: y = 0 leaves A^T y < c, and the dual-feasible
  // y = (1, 1) proves the maximum is 2, not 0.
  Problem p;
  p.num_vars = 2;
  p.objective = {{0, Rat(1)}, {1, Rat(1)}};
  p.constraints = {cons({{0, Rat(1)}}, Sense::Le, Rat(1), "x-cap"),
                   cons({{1, Rat(1)}}, Sense::Le, Rat(1), "y-cap")};
  const std::vector<Rat> origin = {Rat(0), Rat(0)};
  const std::string no_duals =
      check_certificate(p, origin, {Rat(0), Rat(0)}, Rat(0));
  EXPECT_NE(no_duals.find("dual infeasible"), std::string::npos) << no_duals;
  const std::string gap =
      check_certificate(p, origin, {Rat(1), Rat(1)}, Rat(0));
  EXPECT_NE(gap.find("duality gap"), std::string::npos) << gap;
  EXPECT_TRUE(check_certificate(p, {Rat(1), Rat(1)}, {Rat(1), Rat(1)}, Rat(2))
                  .empty());
}

TEST(CertificateTest, RejectsWrongSignedDualEvenWithoutGap) {
  // max x s.t. x <= 1 (twice, once stated as -x >= -1). The duals must
  // satisfy y0 - y1 >= 1 and reach b.y = y0 - y1 = 1, which (2, 1) does;
  // only its sign gives it away, since y1 > 0 on a >= row.
  Problem p;
  p.num_vars = 1;
  p.objective = {{0, Rat(1)}};
  p.constraints = {cons({{0, Rat(1)}}, Sense::Le, Rat(1), "le"),
                   cons({{0, Rat(-1)}}, Sense::Ge, Rat(-1), "ge")};
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  ASSERT_TRUE(check_certificate(p, s.values, s.duals, s.objective).empty());
  const std::string ge = check_certificate(p, s.values, {Rat(2), Rat(1)},
                                           s.objective);
  EXPECT_NE(ge.find("'ge' has the wrong sign"), std::string::npos) << ge;
  // ...and a Le row with a negative dual: y0 = -1, y1 = -2.
  const std::string le = check_certificate(p, s.values, {Rat(-1), Rat(-2)},
                                           s.objective);
  EXPECT_NE(le.find("'le' has the wrong sign"), std::string::npos) << le;
}

TEST(CertificateTest, AcceptsExactSolutionRejectsAnyMutation) {
  Problem p;
  p.num_vars = 3;
  p.objective = {{0, Rat(4)}, {1, Rat(3)}, {2, Rat(2)}};
  p.constraints = {
      cons({{0, Rat(1)}, {1, Rat(1)}}, Sense::Le, Rat(7), "ab"),
      cons({{1, Rat(1)}, {2, Rat(1)}}, Sense::Eq, Rat(5), "bc"),
      cons({{0, Rat(1)}}, Sense::Ge, Rat(1), "a-min"),
  };
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  ASSERT_TRUE(check_certificate(p, s.values, s.duals, s.objective).empty());

  // Seeded single-component mutations, every one of which must be
  // rejected. Primal: each variable is pinned by at least one tight row
  // here, and the objective recomputation catches anything the rows miss.
  // Dual: every rhs is non-zero, so moving one y_i moves b.y off the claim.
  // Sign: the dual of the Le or the Ge row is negated or, when it is zero,
  // set to the sign that row's sense forbids.
  Rng rng(20260807);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<Rat> values = s.values;
    std::vector<Rat> duals = s.duals;
    const std::int64_t delta =
        1 + static_cast<std::int64_t>(rng.next_below(5));
    const Rat step = (trial % 2 == 0) ? Rat(delta) : Rat(-delta);
    std::size_t victim = 0;
    const char* what = "";
    switch (trial % 3) {
      case 0:
        victim = rng.next_below(values.size());
        values[victim] += step;
        what = "x";
        break;
      case 1:
        victim = rng.next_below(duals.size());
        duals[victim] += step;
        what = "y";
        break;
      default: {
        victim = rng.next_below(2) == 0 ? 0 : 2;  // the ab and a-min rows
        const Sense sense = p.constraints[victim].sense;
        duals[victim] = !duals[victim].is_zero() ? -duals[victim]
                        : sense == Sense::Le     ? Rat(-delta)
                                                 : Rat(delta);
        what = "the sign of y";
        break;
      }
    }
    EXPECT_FALSE(check_certificate(p, values, duals, s.objective).empty())
        << "mutation of " << what << victim << " (trial " << trial
        << ") was accepted";
  }
}

TEST(CertificateTest, RejectsWrongObjectiveClaim) {
  Problem p;
  p.num_vars = 1;
  p.objective = {{0, Rat(2)}};
  p.constraints = {cons({{0, Rat(1)}}, Sense::Le, Rat(3), "cap")};
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  const std::string err =
      check_certificate(p, s.values, s.duals, s.objective + Rat(1));
  EXPECT_NE(err.find("objective mismatch"), std::string::npos) << err;
}

TEST(CertificateTest, RejectsSizeAndSignErrors) {
  Problem p;
  p.num_vars = 2;
  EXPECT_FALSE(check_certificate(p, {Rat(1)}, {}, Rat(0)).empty());
  EXPECT_NE(check_certificate(p, {Rat(0), Rat(0)}, {Rat(0)}, Rat(0))
                .find("duals"),
            std::string::npos);
  EXPECT_NE(check_certificate(p, {Rat(-1), Rat(0)}, {}, Rat(0)).find("negative"),
            std::string::npos);
}

TEST(CertificateTest, NamesTheViolatedConstraintTag) {
  Problem p;
  p.num_vars = 1;
  p.constraints = {cons({{0, Rat(1)}}, Sense::Le, Rat(2), "loop@0x40")};
  const std::string err = check_certificate(p, {Rat(9)}, {Rat(0)}, Rat(0));
  EXPECT_NE(err.find("loop@0x40"), std::string::npos) << err;
}

// ----------------------------------------------------- pivot-kernel parity
//
// The int64 fast lane and the rational lane follow the same Bland rule over
// the same exact values, so on any problem where the fast lane fits they
// must return bit-identical solutions — same status, same objective, same
// assignment, same duals, same pivot count. `Auto` must match both (it IS
// the fast lane, with a transparent rational re-solve on overflow).

/// Both forced kernels and Auto agree exactly on `p`.
void expect_kernels_agree(const Problem& p, const char* label) {
  SCOPED_TRACE(label);
  const Solution rational = solve(p, PivotKernel::Rational);
  const Solution fast = solve(p, PivotKernel::Int64);
  const Solution chosen = solve(p);  // Auto
  for (const Solution* s : {&fast, &chosen}) {
    EXPECT_EQ(s->status, rational.status);
    EXPECT_EQ(s->objective, rational.objective);
    ASSERT_EQ(s->values.size(), rational.values.size());
    for (std::size_t i = 0; i < rational.values.size(); ++i)
      EXPECT_EQ(s->values[i], rational.values[i]) << "x" << i;
    ASSERT_EQ(s->duals.size(), rational.duals.size());
    for (std::size_t i = 0; i < rational.duals.size(); ++i)
      EXPECT_EQ(s->duals[i], rational.duals[i]) << "y" << i;
    EXPECT_EQ(s->pivots, rational.pivots);
  }
  EXPECT_EQ(fast.fast_fallbacks, 0);
  EXPECT_EQ(chosen.fast_fallbacks, 0);
  if (rational.status == Status::Optimal) {
    EXPECT_TRUE(check_certificate(p, rational.values, rational.duals,
                                  rational.objective)
                    .empty());
  }
}

TEST(KernelParityTest, AgreesOnEveryHandWrittenLane) {
  // The same problem shapes the solver lanes above exercise: textbook
  // maximum, equality/>= rows (phase-1 artificials), negative rhs
  // normalization, a redundant row dropped in phase 1, infeasible,
  // unbounded, degenerate Bland cycling, and two fractional LP optima (a
  // small ILP and a knapsack).
  {
    Problem p;
    p.num_vars = 2;
    p.objective = {{0, Rat(3)}, {1, Rat(5)}};
    p.constraints = {
        cons({{0, Rat(1)}}, Sense::Le, Rat(4), "x<=4"),
        cons({{1, Rat(2)}}, Sense::Le, Rat(12), "2y<=12"),
        cons({{0, Rat(3)}, {1, Rat(2)}}, Sense::Le, Rat(18), "mix"),
    };
    expect_kernels_agree(p, "textbook-max");
  }
  {
    Problem p;
    p.num_vars = 2;
    p.objective = {{0, Rat(2)}, {1, Rat(1)}};
    p.constraints = {
        cons({{0, Rat(1)}, {1, Rat(1)}}, Sense::Eq, Rat(4), "eq"),
        cons({{0, Rat(1)}}, Sense::Ge, Rat(1), "ge"),
        cons({{1, Rat(1)}}, Sense::Le, Rat(3), "le"),
    };
    expect_kernels_agree(p, "eq-and-ge");
  }
  {
    Problem p;
    p.num_vars = 2;
    p.objective = {{0, Rat(1)}, {1, Rat(1)}};
    p.constraints = {
        cons({{0, Rat(-1)}, {1, Rat(-1)}}, Sense::Le, Rat(-2), "neg-rhs"),
        cons({{0, Rat(1)}, {1, Rat(1)}}, Sense::Le, Rat(10), "cap"),
    };
    expect_kernels_agree(p, "negative-rhs");
  }
  {
    // The second row is twice the first: phase 1 drops it as redundant,
    // and its dual must read 0 for the certificate to close.
    Problem p;
    p.num_vars = 2;
    p.objective = {{0, Rat(1)}};
    p.constraints = {
        cons({{0, Rat(1)}, {1, Rat(1)}}, Sense::Eq, Rat(2), "sum"),
        cons({{0, Rat(2)}, {1, Rat(2)}}, Sense::Eq, Rat(4), "twice-sum"),
    };
    expect_kernels_agree(p, "redundant-row");
    EXPECT_EQ(solve(p).duals, (std::vector<Rat>{Rat(1), Rat(0)}));
  }
  {
    Problem p;
    p.num_vars = 1;
    p.objective = {{0, Rat(1)}};
    p.constraints = {
        cons({{0, Rat(1)}}, Sense::Ge, Rat(5), "lo"),
        cons({{0, Rat(1)}}, Sense::Le, Rat(3), "hi"),
    };
    expect_kernels_agree(p, "infeasible");
  }
  {
    Problem p;
    p.num_vars = 2;
    p.objective = {{0, Rat(1)}, {1, Rat(1)}};
    p.constraints = {cons({{0, Rat(1)}, {1, Rat(-1)}}, Sense::Le, Rat(1),
                          "one-sided")};
    expect_kernels_agree(p, "unbounded");
  }
  {
    // Beale's cycling example — fractional coefficients, so the fast lane
    // exercises its per-row denominator handling, and Bland's rule its
    // anti-cycling guarantee.
    Problem p;
    p.num_vars = 4;
    p.objective = {{0, Rat::fraction(3, 4)},
                   {1, Rat(-150)},
                   {2, Rat::fraction(1, 50)},
                   {3, Rat(-6)}};
    p.constraints = {
        cons({{0, Rat::fraction(1, 4)},
              {1, Rat(-60)},
              {2, Rat::fraction(-1, 25)},
              {3, Rat(9)}},
             Sense::Le, Rat(0), "r0"),
        cons({{0, Rat::fraction(1, 2)},
              {1, Rat(-90)},
              {2, Rat::fraction(-1, 50)},
              {3, Rat(3)}},
             Sense::Le, Rat(0), "r1"),
        cons({{2, Rat(1)}}, Sense::Le, Rat(1), "r2"),
    };
    expect_kernels_agree(p, "beale-degenerate");
  }
  {
    Problem p;
    p.num_vars = 2;
    p.objective = {{0, Rat(1)}, {1, Rat(1)}};
    p.constraints = {
        cons({{0, Rat(2)}, {1, Rat(3)}}, Sense::Le, Rat(12), "a"),
        cons({{0, Rat(2)}, {1, Rat(1)}}, Sense::Le, Rat::fraction(13, 2),
             "b"),
    };
    expect_kernels_agree(p, "fractional-root");
  }
  {
    Problem p;
    p.num_vars = 3;
    p.objective = {{0, Rat(10)}, {1, Rat(13)}, {2, Rat(7)}};
    p.constraints = {
        cons({{0, Rat(3)}, {1, Rat(4)}, {2, Rat(2)}}, Sense::Le, Rat(6),
             "w"),
        cons({{0, Rat(1)}}, Sense::Le, Rat(1), "x0<=1"),
        cons({{1, Rat(1)}}, Sense::Le, Rat(1), "x1<=1"),
        cons({{2, Rat(1)}}, Sense::Le, Rat(1), "x2<=1"),
    };
    expect_kernels_agree(p, "knapsack");
  }
}

TEST(KernelParityTest, AgreesOnSeededRandomProblems) {
  // 48 seeded random problems over small fractional coefficients and mixed
  // senses — enough variety to hit phase-1, degenerate, infeasible, and
  // unbounded paths in both lanes. Half the trials are bounded the way IPET
  // systems are: Le rows over non-negative coefficients, x = 0 feasible, and
  // every variable capped, so they always reach an optimum.
  Rng rng(0xF1A7C0DE);
  for (int trial = 0; trial < 48; ++trial) {
    Problem p;
    p.num_vars = static_cast<int>(2 + rng.next_below(4));
    const bool bounded = rng.next_below(2) == 0;
    for (int v = 0; v < p.num_vars; ++v)
      p.objective.push_back(
          {v, Rat::fraction(rng.next_range(-5, 6),
                            1 + static_cast<std::int64_t>(
                                    rng.next_below(3)))});
    const std::size_t rows = 2 + rng.next_below(4);
    for (std::size_t r = 0; r < rows; ++r) {
      Constraint c;
      for (int v = 0; v < p.num_vars; ++v) {
        const std::int64_t num = bounded ? rng.next_range(0, 6)
                                         : rng.next_range(-4, 6);
        if (num != 0) c.terms.push_back({v, Rat(num)});
      }
      if (c.terms.empty()) c.terms.push_back({0, Rat(1)});
      const std::uint64_t pick = bounded ? 3 : rng.next_below(4);
      c.sense = pick == 0 ? Sense::Ge : pick == 1 ? Sense::Eq : Sense::Le;
      c.rhs = Rat(bounded ? rng.next_range(0, 20) : rng.next_range(-8, 20));
      c.tag = "r" + std::to_string(r);
      p.constraints.push_back(std::move(c));
    }
    if (bounded)
      for (int v = 0; v < p.num_vars; ++v)
        p.constraints.push_back(cons({{v, Rat(1)}}, Sense::Le,
                                     Rat(rng.next_range(0, 8)),
                                     "bound-x" + std::to_string(v)));
    expect_kernels_agree(p, ("seeded-trial-" + std::to_string(trial)).c_str());
  }
}

TEST(KernelParityTest, OverflowFallsBackTransparently) {
  // One row whose coefficient denominators are eight large primes: each Rat
  // cell is tiny (1/p), so the rational lane is comfortable, but the fast
  // lane stores rows over a single shared denominator — the lcm, here the
  // product of the primes, ~9.7e23 — which cannot fit the int64 budget.
  // Auto must re-solve on the rational lane (counted in fast_fallbacks) and
  // match it exactly; a forced Int64 kernel must refuse loudly instead of
  // wrapping.
  const std::int64_t primes[] = {947, 953, 967, 971, 977, 983, 991, 997};
  Problem p;
  p.num_vars = 9;
  // Only x8 carries objective weight; the prime row constrains x0..x7,
  // which stay nonbasic at zero, so the rational lane never pivots on it
  // and its per-cell fractions stay tiny. The fast lane, however, scales
  // the whole row to its lcm denominator at build time and must bail.
  p.objective = {{8, Rat(1)}};
  Constraint mixed;
  for (int v = 0; v < 8; ++v)
    mixed.terms.push_back({v, Rat::fraction(1, primes[v])});
  mixed.sense = Sense::Le;
  mixed.rhs = Rat(1);
  mixed.tag = "prime-row";
  p.constraints.push_back(std::move(mixed));
  p.constraints.push_back(cons({{8, Rat(1)}}, Sense::Le, Rat(2), "cap-x8"));

  const Solution rational = solve(p, PivotKernel::Rational);
  const Solution chosen = solve(p);  // Auto
  ASSERT_EQ(rational.status, Status::Optimal);
  EXPECT_EQ(rational.objective, Rat(2));  // cap-x8 binds; prime row slack
  EXPECT_EQ(chosen.status, rational.status);
  EXPECT_EQ(chosen.objective, rational.objective);
  ASSERT_EQ(chosen.values.size(), rational.values.size());
  for (std::size_t i = 0; i < rational.values.size(); ++i)
    EXPECT_EQ(chosen.values[i], rational.values[i]) << "x" << i;
  EXPECT_EQ(chosen.duals, rational.duals);
  EXPECT_GT(chosen.fast_fallbacks, 0);
  EXPECT_THROW((void)solve(p, PivotKernel::Int64), InternalError);
}

}  // namespace
}  // namespace vc::ilp
