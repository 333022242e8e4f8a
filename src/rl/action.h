// Conversions between the actor's continuous simplex output and integer
// consumer allocations.
//
// The actor emits a categorical distribution a over J microservices
// (softmax output). The paper maps it to consumer counts with
// m_j = floor(C * a_j) (§IV-D), which guarantees sum(m) <= C but can strand
// up to J-1 consumers; the largest-remainder mode distributes the stranded
// consumers by fractional part and uses the budget exactly. Both are
// provided; experiments use the paper-faithful floor by default.
#pragma once

#include <vector>

namespace miras::rl {

enum class RoundingMode { kFloor, kLargestRemainder };

/// Maps simplex weights to an integer allocation under budget C.
/// `weights` must be non-negative; they are normalised internally if their
/// sum differs from 1 (a zero-sum vector maps to the uniform allocation).
/// Postcondition: all entries >= 0 and sum <= budget (== budget for
/// kLargestRemainder).
std::vector<int> allocation_from_weights(const std::vector<double>& weights,
                                         int budget, RoundingMode mode);

/// The decision policy's weights -> allocation map: allocation_from_weights,
/// then enforce_minimum_allocation when min_per_type > 0 and the budget
/// can fund min_per_type for every entry (otherwise the floor is skipped).
/// DdpgAgent, the collection loops and serve::ActorSnapshot all map
/// through it.
std::vector<int> allocation_with_minimum(const std::vector<double>& weights,
                                         int budget, RoundingMode mode,
                                         int min_per_type);

/// Inverse embedding used when storing integer allocations in the replay
/// buffer: w_j = m_j / C.
std::vector<double> weights_from_allocation(const std::vector<int>& allocation,
                                            int budget);

/// True iff the allocation satisfies the resource constraint.
bool satisfies_budget(const std::vector<int>& allocation, int budget);

/// Deployment guardrail (Kubernetes minReplicas analogue): raises every
/// entry to at least `min_per_type`, funded first from unused budget and
/// then from the largest allocations. Requires budget >= min_per_type *
/// allocation.size(); the result still satisfies the budget.
void enforce_minimum_allocation(std::vector<int>& allocation,
                                int min_per_type, int budget);

}  // namespace miras::rl
