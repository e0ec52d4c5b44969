"""Property-based check of the Theorem-1 verifier rule (ANA204).

The oracle recomputes the feasibility product independently of the
implementation: for a random plan, ``check_retransmission_plan`` must
accept exactly when ``prod_z (1 - p_z^(k_z+1))^(u/T_z) >= rho``.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.retransmission import MAX_RETRANSMISSIONS
from repro.verify.analysis_checks import check_retransmission_plan

MESSAGES = [f"m{i}" for i in range(8)]

plan_entries = st.tuples(
    st.floats(min_value=1e-9, max_value=0.4),    # p_z
    st.integers(min_value=0, max_value=8),       # k_z
    st.floats(min_value=0.01, max_value=200.0),  # u / T_z
)

plans = st.dictionaries(
    keys=st.sampled_from(MESSAGES),
    values=plan_entries,
    min_size=1,
    max_size=6,
)


def oracle_log_product(plan):
    """Theorem 1's product, recomputed from the paper's formula."""
    return sum(
        instances * math.log1p(-(p_z ** (budget + 1)))
        for p_z, budget, instances in plan.values()
    )


@settings(max_examples=200, deadline=None)
@given(plan=plans,
       rho=st.floats(min_value=0.5, max_value=1.0))
def test_verifier_accepts_iff_product_meets_goal(plan, rho):
    log_total = oracle_log_product(plan)
    goal_log = math.log(rho)
    # Stay away from exact float ties between the two independently
    # computed sides; the boundary itself is covered deterministically
    # in tests/verify/test_analysis_checks.py.
    margin = 1e-9 * max(1.0, abs(log_total), abs(goal_log))
    assume(abs(log_total - goal_log) > margin)

    report = check_retransmission_plan(
        failure_probabilities={m: v[0] for m, v in plan.items()},
        instances={m: v[2] for m, v in plan.items()},
        budgets={m: v[1] for m, v in plan.items()},
        rho=rho,
    )
    accepted = not report.has_errors
    assert accepted == (log_total >= goal_log), (
        f"verifier {'accepted' if accepted else 'rejected'} a plan with "
        f"log product {log_total} against goal {goal_log}"
    )
    if not accepted:
        assert report.rule_ids() == ["ANA204"]
    else:
        assert len(report) == 0


@settings(max_examples=100, deadline=None)
@given(plan=plans, rho=st.floats(min_value=0.5, max_value=1.0))
def test_raising_budgets_never_breaks_a_feasible_plan(plan, rho):
    """Monotonicity: adding retransmissions only helps reliability.

    Budgets already at the cap stay there: one past it is ANA206's
    business, not the product's.
    """
    base = check_retransmission_plan(
        failure_probabilities={m: v[0] for m, v in plan.items()},
        instances={m: v[2] for m, v in plan.items()},
        budgets={m: v[1] for m, v in plan.items()},
        rho=rho,
    )
    assume(not base.has_errors)
    raised = check_retransmission_plan(
        failure_probabilities={m: v[0] for m, v in plan.items()},
        instances={m: v[2] for m, v in plan.items()},
        budgets={m: min(v[1] + 1, MAX_RETRANSMISSIONS)
                 for m, v in plan.items()},
        rho=rho,
    )
    assert not raised.has_errors
