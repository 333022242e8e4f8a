#include "rl/action.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.h"

namespace miras::rl {

std::vector<int> allocation_from_weights(const std::vector<double>& weights,
                                         int budget, RoundingMode mode) {
  MIRAS_EXPECTS(!weights.empty());
  MIRAS_EXPECTS(budget > 0);
  for (const double w : weights) MIRAS_EXPECTS(w >= 0.0);

  const std::size_t j_count = weights.size();
  std::vector<double> normalized = weights;
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) {
    std::fill(normalized.begin(), normalized.end(),
              1.0 / static_cast<double>(j_count));
  } else {
    for (double& w : normalized) w /= total;
  }

  std::vector<int> allocation(j_count);
  std::vector<double> fractional(j_count);
  int assigned = 0;
  for (std::size_t j = 0; j < j_count; ++j) {
    const double exact = static_cast<double>(budget) * normalized[j];
    allocation[j] = static_cast<int>(std::floor(exact));
    fractional[j] = exact - std::floor(exact);
    assigned += allocation[j];
  }
  MIRAS_ASSERT(assigned <= budget);

  if (mode == RoundingMode::kLargestRemainder) {
    // Hand the stranded consumers to the largest fractional parts;
    // ties broken by lower index for determinism.
    std::vector<std::size_t> order(j_count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&fractional](std::size_t a, std::size_t b) {
                       return fractional[a] > fractional[b];
                     });
    int leftover = budget - assigned;
    for (std::size_t i = 0; leftover > 0; i = (i + 1) % j_count, --leftover)
      ++allocation[order[i]];
  }

  MIRAS_ENSURES(satisfies_budget(allocation, budget));
  return allocation;
}

std::vector<int> allocation_with_minimum(const std::vector<double>& weights,
                                         int budget, RoundingMode mode,
                                         int min_per_type) {
  std::vector<int> allocation = allocation_from_weights(weights, budget, mode);
  if (min_per_type > 0 &&
      budget >= min_per_type * static_cast<int>(allocation.size()))
    enforce_minimum_allocation(allocation, min_per_type, budget);
  return allocation;
}

std::vector<double> weights_from_allocation(const std::vector<int>& allocation,
                                            int budget) {
  MIRAS_EXPECTS(budget > 0);
  std::vector<double> weights(allocation.size());
  for (std::size_t j = 0; j < allocation.size(); ++j) {
    MIRAS_EXPECTS(allocation[j] >= 0);
    weights[j] = static_cast<double>(allocation[j]) /
                 static_cast<double>(budget);
  }
  return weights;
}

void enforce_minimum_allocation(std::vector<int>& allocation,
                                int min_per_type, int budget) {
  MIRAS_EXPECTS(min_per_type >= 0);
  if (min_per_type == 0 || allocation.empty()) return;
  MIRAS_EXPECTS(budget >=
                min_per_type * static_cast<int>(allocation.size()));
  int total = 0;
  for (const int m : allocation) total += m;
  MIRAS_EXPECTS(total <= budget);
  for (std::size_t j = 0; j < allocation.size(); ++j) {
    while (allocation[j] < min_per_type) {
      if (total < budget) {
        // Spare budget available (floor rounding strands consumers).
        ++allocation[j];
        ++total;
        continue;
      }
      // Take one consumer from the currently largest allocation.
      std::size_t richest = 0;
      for (std::size_t k = 1; k < allocation.size(); ++k)
        if (allocation[k] > allocation[richest]) richest = k;
      MIRAS_ASSERT(allocation[richest] > min_per_type);
      --allocation[richest];
      ++allocation[j];
    }
  }
}

bool satisfies_budget(const std::vector<int>& allocation, int budget) {
  int total = 0;
  for (const int m : allocation) {
    if (m < 0) return false;
    total += m;
  }
  return total <= budget;
}

}  // namespace miras::rl
