// Exact LP solving for implicit path enumeration.
//
// The problem shape is fixed by the IPET lowering (src/wcet/ipet.cpp):
// maximize a linear objective over non-negative variables subject to
// <=/>=/= constraints. The solver is a dense two-phase primal simplex over
// exact rationals with Bland's rule (anti-cycling). It solves the LP only:
// the LP optimum bounds every integral solution from above, which is all a
// WCET bound needs.
//
// Trust boundary: nothing in solver.cpp is trusted. A solution is only
// accepted after verify.cpp::check_certificate proves it optimal using only
// Rat arithmetic — a few dozen lines that are independent of the pivoting
// machinery: the primal values satisfy every constraint, the dual values
// satisfy every dual constraint, and both attain the claimed objective. A
// solver bug therefore shows up as a rejected certificate, not as a WCET
// bound below the LP maximum.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ilp/rational.hpp"

namespace vc::ilp {

enum class Sense { Le, Ge, Eq };

/// coeff * x[var]; variables are dense indices [0, num_vars).
struct LinTerm {
  int var = 0;
  Rat coeff;
};

struct Constraint {
  std::vector<LinTerm> terms;
  Sense sense = Sense::Le;
  Rat rhs;
  std::string tag;  ///< provenance for diagnostics ("loop@0x40", "flow b3"...)
};

/// Maximize objective . x  subject to constraints and x >= 0 (implicit).
struct Problem {
  int num_vars = 0;
  std::vector<LinTerm> objective;
  std::vector<Constraint> constraints;
};

enum class Status { Optimal, Infeasible, Unbounded };

/// Pivot-kernel selection. `Int64` is the dense fast lane: flat row-major
/// int64 numerators with one shared denominator per row, pivoting in 128-bit
/// intermediates with a single gcd normalization pass per touched row.
/// `Rational` is the original per-cell Rat tableau. Both follow the same
/// Bland pivot rule over the same exact values, so they take identical pivot
/// sequences and return bit-identical solutions; `Auto` (the default) runs
/// the fast lane and transparently re-solves on the rational lane when a
/// reduced row no longer fits the int64 budget. Nothing here is trusted
/// either way — every accepted solution still passes check_certificate.
enum class PivotKernel { Auto, Int64, Rational };

struct Solution {
  Status status = Status::Infeasible;
  Rat objective;
  std::vector<Rat> values;  ///< one per variable when status == Optimal
  /// One dual multiplier per constraint when status == Optimal: >= 0 on Le
  /// rows, <= 0 on Ge rows, free on Eq rows.
  std::vector<Rat> duals;
  std::int64_t pivots = 0;  ///< simplex pivots, both lanes included
  std::int64_t fast_fallbacks = 0;  ///< solves re-run on the rational lane
};

/// Solves the LP.
[[nodiscard]] Solution solve(const Problem& problem,
                             PivotKernel kernel = PivotKernel::Auto);

/// Independent certificate check (verify.cpp), by weak duality: `values`
/// is non-negative and satisfies every constraint; `duals` has the sign
/// each row's sense demands and A^T y >= c holds on every variable; and
/// c.x = b.y = `objective`. Then `objective` is the LP maximum, hence an
/// upper bound on every feasible (integral or not) solution. Returns an
/// empty string on success, else a description of the first violated
/// condition.
[[nodiscard]] std::string check_certificate(const Problem& problem,
                                            const std::vector<Rat>& values,
                                            const std::vector<Rat>& duals,
                                            const Rat& objective);

}  // namespace vc::ilp
