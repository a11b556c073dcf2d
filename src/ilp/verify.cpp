// Independent certificate verifier for solver results.
//
// This file is the trusted half of src/ilp: it knows nothing about
// tableaux, bases, or pivots. Given the problem statement, a primal
// assignment x and a dual assignment y, it checks with exact Rat arithmetic
// that x is feasible, that y is dual feasible, and that c.x = b.y equals the
// claimed objective. By weak duality every feasible x' then has
// c.x' <= b.y, so the claim is the LP maximum: the simplex machinery in
// solver.cpp can be arbitrarily wrong and the worst outcome is a rejected
// certificate (a hard, named error upstream), not a bound below the
// maximum.
#include "ilp/solver.hpp"

namespace vc::ilp {
namespace {

Rat eval_terms(const std::vector<LinTerm>& terms,
               const std::vector<Rat>& values) {
  Rat sum;
  for (const LinTerm& t : terms)
    sum += t.coeff * values[static_cast<std::size_t>(t.var)];
  return sum;
}

std::string describe(const Constraint& c, const Rat& lhs) {
  const char* rel = c.sense == Sense::Le ? "<=" : c.sense == Sense::Ge ? ">=" : "==";
  std::string where = c.tag.empty() ? std::string("<untagged>") : c.tag;
  return "constraint '" + where + "' violated: " + lhs.to_string() + " " +
         rel + " " + c.rhs.to_string() + " does not hold";
}

std::string out_of_range(const std::string& where, int var) {
  return where + " references variable x" + std::to_string(var) +
         " out of range";
}

}  // namespace

std::string check_certificate(const Problem& problem,
                              const std::vector<Rat>& values,
                              const std::vector<Rat>& duals,
                              const Rat& objective) {
  const auto n = static_cast<std::size_t>(problem.num_vars);
  if (values.size() != n)
    return "certificate has " + std::to_string(values.size()) +
           " values for " + std::to_string(n) + " variables";
  if (duals.size() != problem.constraints.size())
    return "certificate has " + std::to_string(duals.size()) + " duals for " +
           std::to_string(problem.constraints.size()) + " constraints";

  // Primal feasibility: x >= 0 and every row holds.
  for (std::size_t j = 0; j < n; ++j)
    if (values[j] < Rat(0))
      return "variable x" + std::to_string(j) + " is negative (" +
             values[j].to_string() + ")";
  for (const Constraint& c : problem.constraints) {
    for (const LinTerm& t : c.terms)
      if (t.var < 0 || t.var >= problem.num_vars)
        return out_of_range("constraint '" + c.tag + "'", t.var);
    const Rat lhs = eval_terms(c.terms, values);
    const bool ok = c.sense == Sense::Le   ? lhs <= c.rhs
                    : c.sense == Sense::Ge ? lhs >= c.rhs
                                           : lhs == c.rhs;
    if (!ok) return describe(c, lhs);
  }

  // Dual feasibility: y_i >= 0 on Le rows, <= 0 on Ge rows, and
  // (A^T y)_j >= c_j on every variable. `reduced` accumulates A^T y - c.
  std::vector<Rat> reduced(n);
  for (const LinTerm& t : problem.objective) {
    if (t.var < 0 || t.var >= problem.num_vars)
      return out_of_range("objective", t.var);
    reduced[static_cast<std::size_t>(t.var)] -= t.coeff;
  }
  Rat dual_objective;
  for (std::size_t i = 0; i < duals.size(); ++i) {
    const Constraint& c = problem.constraints[i];
    const Rat& y = duals[i];
    if ((c.sense == Sense::Le && y < Rat(0)) ||
        (c.sense == Sense::Ge && y > Rat(0)))
      return "dual of constraint '" + c.tag + "' has the wrong sign (" +
             y.to_string() + ")";
    for (const LinTerm& t : c.terms)
      reduced[static_cast<std::size_t>(t.var)] += t.coeff * y;
    dual_objective += c.rhs * y;
  }
  for (std::size_t j = 0; j < n; ++j)
    if (reduced[j] < Rat(0))
      return "dual infeasible at variable x" + std::to_string(j) +
             ": (A^T y - c) = " + reduced[j].to_string() + " < 0";

  // Zero duality gap: both sides attain the claim.
  const Rat primal_objective = eval_terms(problem.objective, values);
  if (primal_objective != objective)
    return "objective mismatch: assignment evaluates to " +
           primal_objective.to_string() + ", solver claimed " +
           objective.to_string();
  if (dual_objective != objective)
    return "duality gap: dual bound is " + dual_objective.to_string() +
           ", solver claimed " + objective.to_string();
  return {};
}

}  // namespace vc::ilp
