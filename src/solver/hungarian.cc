#include "solver/hungarian.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qcap {

Result<AssignmentResult> SolveAssignment(
    const std::vector<std::vector<double>>& cost) {
  const size_t n = cost.size();
  std::vector<double> flat;
  flat.reserve(n * n);
  for (const auto& row : cost) {
    if (row.size() != n) {
      return Status::InvalidArgument("cost matrix is not square");
    }
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return SolveAssignment(flat, n);
}

Result<AssignmentResult> SolveAssignment(std::span<const double> cost,
                                         size_t n) {
  if (n == 0) {
    return Status::InvalidArgument("empty cost matrix");
  }
  if (cost.size() != n * n) {
    return Status::InvalidArgument("cost matrix is not square");
  }
  // A NaN or infinite cell never wins a strict comparison against the
  // potentials, so the augmenting-path search below would never end.
  for (double c : cost) {
    if (!std::isfinite(c)) {
      return Status::InvalidArgument("cost matrix has a non-finite cell");
    }
  }

  // O(n^3) Hungarian algorithm with row/column potentials. Uses 1-based
  // auxiliary arrays; p[j] = row matched to column j.
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<size_t> p(n + 1, 0), way(n + 1, 0);
  std::vector<double> minv(n + 1);
  std::vector<bool> used(n + 1);

  for (size_t i = 1; i <= n; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(used.begin(), used.end(), false);
    do {
      used[j0] = true;
      const size_t i0 = p[j0];
      double delta = kInf;
      size_t j1 = 0;
      for (size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const double cur = cost[(i0 - 1) * n + (j - 1)] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= n; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.assignment.assign(n, 0);
  for (size_t j = 1; j <= n; ++j) {
    result.assignment[p[j] - 1] = j - 1;
  }
  for (size_t i = 0; i < n; ++i) {
    result.total_cost += cost[i * n + result.assignment[i]];
  }
  return result;
}

}  // namespace qcap
