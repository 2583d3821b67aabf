"""Ledger tests: worked scenario, branch arithmetic, and accounting oracles."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxtrader.ledger import (
    BasisState,
    LedgerError,
    TaxCashflow,
    TaxParams,
    basis_branch,
    compute_tax,
    realized_quantity,
    step_ledger,
    transaction_cost,
    update_basis,
    update_holding,
)

GRID = (-200.0, -100.0, 0.0, 100.0, 200.0)


def close(a, b, rel=1e-9):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Independent oracles. These never call into the ledger's update formulas.


def pool_total_cost(positions, prices):
    """Cash-accounting total cost after each step, starting flat.

    Longs: buys add traded notional, sells release the pool proportionally.
    Shorts: every trade moves the (negative) pool by its signed notional.
    Crossing or touching zero restarts the pool at the trade price.
    """
    total = 0.0
    prev = 0.0
    out = []
    for pos, price in zip(positions, prices):
        if prev * pos <= 0:
            total = price * pos
        elif prev > 0:
            if pos >= prev:
                total += price * (pos - prev)
            else:
                total *= pos / prev
        else:
            total += price * (pos - prev)
        out.append(total)
        prev = pos
    return out


def closed_quantities(prev_pos, next_pos):
    """(long shares sold, short shares covered) by direct case analysis."""
    if prev_pos >= 0 and next_pos < prev_pos:
        return prev_pos - max(next_pos, 0.0), 0.0
    if prev_pos <= 0 and next_pos > prev_pos:
        return 0.0, min(next_pos, 0.0) - prev_pos
    return 0.0, 0.0


def run_path(positions, prices, params=None):
    """Replay a path through the ledger, returning states and cashflows."""
    params = params or TaxParams()
    state = BasisState.flat(prices[0])
    states, cashflows = [], []
    for pos, price in zip(positions, prices):
        state, cf = step_ledger(state, price, pos, params)
        states.append(state)
        cashflows.append(cf)
    return states, cashflows


# ---------------------------------------------------------------------------
# Worked scenario: buy 300 @ 200, hold 1.5y, buy 100 @ 300, hold 0.5y,
# sell all 400 @ 350. Expect basis 225, holding 378 days, tax 7,500,
# and 1,150 of transaction costs at a 0.5% rate.


def replay_worked_scenario(params):
    state = BasisState.flat(200.0)
    state, cf_buy1 = step_ledger(state, 200.0, 300.0, params)
    for _ in range(377):
        state, _ = step_ledger(state, 210.0, 300.0, params)
    state, cf_buy2 = step_ledger(state, 300.0, 400.0, params)
    basis_after_blend = state.avg_basis
    holding_after_blend = state.avg_holding
    for _ in range(126):
        state, _ = step_ledger(state, 320.0, 400.0, params)
    holding_at_sale = state.avg_holding
    state, cf_sale = step_ledger(state, 350.0, 0.0, params)
    return {
        "basis": basis_after_blend,
        "holding_blend": holding_after_blend,
        "holding_sale": holding_at_sale,
        "gain_tax": cf_sale.gain_tax,
        "total_cost": cf_buy1.txn_cost + cf_buy2.txn_cost + cf_sale.txn_cost,
        "final_state": state,
    }


class TestWorkedScenario:
    def test_full_replay(self):
        result = replay_worked_scenario(TaxParams(txn_cost_rate=0.005))
        assert close(result["basis"], 225.0)
        assert close(result["holding_sale"], 378.0)  # 1.5 trading years
        assert close(result["gain_tax"], 7500.0)
        assert close(result["total_cost"], 1150.0)

    def test_blend_step_basis(self):
        prev = BasisState(position=300.0, avg_basis=200.0, avg_holding=378.0)
        assert close(update_basis(prev, 300.0, 400.0), 225.0)

    def test_blend_step_holding_isolated(self):
        # dt = 0 isolates the dollar-day aggregation: 200*300*378 / (225*400).
        prev = BasisState(position=300.0, avg_basis=200.0, avg_holding=378.0)
        h = update_holding(prev, 225.0, 300.0, 400.0, dt=0.0)
        assert close(h, 252.0)

    def test_sale_tax(self):
        prev = BasisState(position=400.0, avg_basis=225.0, avg_holding=378.0)
        cf = compute_tax(prev, 350.0, 0.0, TaxParams())
        assert close(cf.gain_tax, 7500.0)
        assert cf.loss_rebate == 0.0

    def test_flat_at_zero_stays_quiet(self):
        states, cashflows = run_path([0.0] * 10, np.linspace(90, 110, 10))
        for state, cf in zip(states, cashflows):
            assert state.position == 0.0
            assert state.avg_holding == 0.0
            assert cf.gain_tax == cf.loss_rebate == cf.txn_cost == 0.0
        # flat basis tracks the latest reset price
        assert states[-1].avg_basis == pytest.approx(110.0)


class TestUpdateBasis:
    def test_zero_crossing_resets_to_price(self):
        prev = BasisState(position=100.0, avg_basis=80.0, avg_holding=10.0)
        assert update_basis(prev, 50.0, -100.0) == 50.0

    def test_growing_short_blends_proceeds(self):
        prev = BasisState(position=-100.0, avg_basis=40.0, avg_holding=5.0)
        # (40*(-100) + 60*(-100)) / (-200)
        assert close(update_basis(prev, 60.0, -200.0), 50.0)

    def test_selling_leaves_basis_unchanged(self):
        prev = BasisState(position=400.0, avg_basis=225.0, avg_holding=252.0)
        assert close(update_basis(prev, 350.0, 100.0), 225.0)

    def test_rejects_non_positive_price(self):
        prev = BasisState.flat(100.0)
        with pytest.raises(ValueError):
            update_basis(prev, 0.0, 100.0)

    def test_partial_short_cover_carries_cash_total(self):
        # Covering half a short moves the pool by the buy notional rather
        # than releasing it proportionally; at high prices the carried
        # basis can even go negative. Both follow from the update rule.
        prev = BasisState(position=-200.0, avg_basis=50.0, avg_holding=3.0)
        assert close(update_basis(prev, 60.0, -100.0), 40.0)
        assert close(update_basis(prev, 200.0, -100.0), -100.0)

    @given(
        start=st.integers(1, 500),
        end=st.integers(1, 500),
        basis=st.floats(1.0, 1000.0),
        price=st.floats(1.0, 1000.0),
    )
    def test_basis_conserved_under_sells(self, start, end, basis, price):
        # Selling down to a still-open long leaves the basis bit-identical.
        # (Selling to exactly zero is the reset branch: flat positions
        # renormalize their basis to the trade price.)
        sell_to = min(start, end)
        prev = BasisState(position=float(start), avg_basis=basis, avg_holding=7.0)
        assert update_basis(prev, price, float(sell_to)) == basis


class TestUpdateHolding:
    def test_zero_crossing_resets(self):
        prev = BasisState(position=250.0, avg_basis=80.0, avg_holding=99.0)
        assert update_holding(prev, 50.0, 50.0, -100.0, dt=1.0) == 0.0

    def test_no_trade_ages_by_dt(self):
        prev = BasisState(position=100.0, avg_basis=50.0, avg_holding=7.0)
        assert close(update_holding(prev, 50.0, 55.0, 100.0, dt=1.0), 8.0)

    @given(
        pos=st.sampled_from([-200.0, -100.0, 100.0, 200.0]),
        basis=st.floats(1.0, 1000.0),
        holding=st.floats(0.0, 500.0),
        dt=st.floats(0.25, 5.0),
    )
    def test_aging_property(self, pos, basis, holding, dt):
        prev = BasisState(position=pos, avg_basis=basis, avg_holding=holding)
        aged = update_holding(prev, basis, basis, pos, dt=dt)
        assert aged == pytest.approx(holding + dt, rel=1e-12)

    def test_zero_next_basis_aborts(self):
        # A partial cover that zeroes the cash pool leaves no basis to
        # weight the holding by; the step must abort, not divide by zero.
        prev = BasisState(position=-200.0, avg_basis=50.0, avg_holding=3.0)
        assert update_basis(prev, 100.0, -100.0) == 0.0
        with pytest.raises(LedgerError):
            update_holding(prev, 0.0, 100.0, -100.0, dt=1.0)


class TestBranchTotality:
    @given(a=st.sampled_from(GRID), a_next=st.sampled_from(GRID))
    def test_exactly_one_branch_applies(self, a, a_next):
        predicates = [a * a_next <= 0, a_next < a < 0]
        predicates.append(not (predicates[0] or predicates[1]))
        assert sum(predicates) == 1
        assert predicates[basis_branch(a, a_next) - 1]


class TestRealizedQuantity:
    def test_full_liquidation(self):
        assert realized_quantity(400.0, 0.0) == 400.0

    def test_no_trade_realizes_nothing(self):
        assert realized_quantity(100.0, 100.0) == 0.0
        assert realized_quantity(-100.0, -100.0) == 0.0

    def test_cover_all_then_long_realizes_short_only(self):
        assert realized_quantity(-100.0, 50.0) == 100.0

    def test_partial_short_cover(self):
        assert realized_quantity(-200.0, -100.0) == 100.0

    def test_buys_realize_nothing(self):
        assert realized_quantity(100.0, 200.0) == 0.0
        assert realized_quantity(0.0, 100.0) == 0.0
        assert realized_quantity(0.0, -100.0) == 0.0

    @given(a=st.sampled_from(GRID), a_next=st.sampled_from(GRID))
    def test_matches_case_analysis_and_nonnegative(self, a, a_next):
        sold, covered = closed_quantities(a, a_next)
        q = realized_quantity(a, a_next)
        assert q >= 0.0
        assert q == pytest.approx(sold + covered)


class TestComputeTax:
    def test_long_term_gain(self):
        prev = BasisState(position=400.0, avg_basis=225.0, avg_holding=378.0)
        cf = compute_tax(prev, 350.0, 0.0, TaxParams())
        assert close(cf.gain_tax, 50_000.0 * 0.15)

    def test_short_term_rate_below_threshold(self):
        prev = BasisState(position=400.0, avg_basis=225.0, avg_holding=100.0)
        cf = compute_tax(prev, 350.0, 0.0, TaxParams())
        assert close(cf.gain_tax, 50_000.0 * 0.25)

    def test_price_at_basis_is_free(self):
        prev = BasisState(position=100.0, avg_basis=200.0, avg_holding=10.0)
        cf = compute_tax(prev, 200.0, 0.0, TaxParams())
        assert cf.gain_tax == 0.0 and cf.loss_rebate == 0.0

    def test_loss_rebate_at_short_rate(self):
        prev = BasisState(position=100.0, avg_basis=100.0, avg_holding=10.0)
        cf = compute_tax(prev, 90.0, 0.0, TaxParams(txn_cost_rate=0.0))
        assert close(cf.loss_rebate, 250.0)
        assert cf.gain_tax == 0.0

    def test_loss_rebate_ignores_holding_period(self):
        long_held = BasisState(position=100.0, avg_basis=100.0, avg_holding=900.0)
        cf = compute_tax(long_held, 90.0, 0.0, TaxParams(txn_cost_rate=0.0))
        assert close(cf.loss_rebate, 250.0)

    def test_flat_start_never_taxed(self):
        prev = BasisState.flat(100.0)
        for target in GRID:
            cf = compute_tax(prev, 150.0, target, TaxParams(txn_cost_rate=0.0))
            assert cf.gain_tax == 0.0 and cf.loss_rebate == 0.0

    def test_short_cover_as_written_taxes_price_above_basis(self):
        prev = BasisState(position=-100.0, avg_basis=50.0, avg_holding=10.0)
        cf = compute_tax(prev, 60.0, 0.0, TaxParams(txn_cost_rate=0.0))
        assert close(cf.gain_tax, 10.0 * 100.0 * 0.25)
        assert cf.loss_rebate == 0.0

    def test_short_cover_economic_swaps_roles(self):
        params = TaxParams(txn_cost_rate=0.0, short_cover_convention="economic")
        prev = BasisState(position=-100.0, avg_basis=50.0, avg_holding=10.0)
        # price above basis is an economic loss on a short
        cf = compute_tax(prev, 60.0, 0.0, params)
        assert close(cf.loss_rebate, 10.0 * 100.0 * 0.25)
        assert cf.gain_tax == 0.0
        # price below basis is an economic gain, taxed at the holding rate
        aged = BasisState(position=-100.0, avg_basis=50.0, avg_holding=300.0)
        cf = compute_tax(aged, 40.0, 0.0, params)
        assert close(cf.gain_tax, 10.0 * 100.0 * 0.15)
        assert cf.loss_rebate == 0.0

    def test_economic_convention_leaves_long_sells_alone(self):
        params = TaxParams(txn_cost_rate=0.0, short_cover_convention="economic")
        prev = BasisState(position=400.0, avg_basis=225.0, avg_holding=378.0)
        cf = compute_tax(prev, 350.0, 0.0, params)
        assert close(cf.gain_tax, 7500.0)

    @given(
        a=st.sampled_from(GRID),
        a_next=st.sampled_from(GRID),
        basis=st.floats(10.0, 500.0),
        price=st.floats(10.0, 500.0),
        holding=st.floats(0.0, 500.0),
    )
    @settings(max_examples=200)
    def test_cashflow_exclusivity(self, a, a_next, basis, price, holding):
        prev = BasisState(position=a, avg_basis=basis, avg_holding=holding)
        cf = compute_tax(prev, price, a_next, TaxParams())
        assert cf.gain_tax * cf.loss_rebate == 0.0
        assert cf.gain_tax >= 0.0 and cf.loss_rebate >= 0.0
        assert cf.net == cf.loss_rebate - cf.gain_tax - cf.txn_cost


class TestTransactionCost:
    def test_no_trade_is_free(self):
        prev = BasisState(position=100.0, avg_basis=90.0, avg_holding=5.0)
        assert transaction_cost(prev, 120.0, 100.0, TaxParams()) == 0.0

    def test_notional_mode(self):
        prev = BasisState(position=100.0, avg_basis=90.0, avg_holding=5.0)
        cost = transaction_cost(prev, 250.0, -100.0, TaxParams(txn_cost_rate=0.001))
        assert close(cost, 50.0)  # 0.001 * 250 * 200

    def test_worked_scenario_costs_at_half_percent(self):
        result = replay_worked_scenario(TaxParams(txn_cost_rate=0.005))
        assert close(result["total_cost"], 1150.0)

    def test_pnl_mode_charges_on_realized_edge(self):
        params = TaxParams(txn_cost_rate=0.001, txn_cost_mode="pnl")
        prev = BasisState(position=100.0, avg_basis=200.0, avg_holding=5.0)
        cost = transaction_cost(prev, 250.0, 0.0, params)
        assert close(cost, 0.001 * 50.0 * 100.0)
        # buys realize nothing, so they cost nothing in this mode
        assert transaction_cost(prev, 250.0, 200.0, params) == 0.0


class TestTaxParams:
    def test_rejects_inverted_rates(self):
        with pytest.raises(ValueError):
            TaxParams(rate_long=0.3, rate_short=0.2)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            TaxParams(txn_cost_mode="flat-fee")


class TestStepLedger:
    def test_deterministic(self):
        prev = BasisState(position=100.0, avg_basis=90.0, avg_holding=40.0)
        first = step_ledger(prev, 95.0, -100.0, TaxParams())
        second = step_ledger(prev, 95.0, -100.0, TaxParams())
        assert first == second

    def test_markov_property(self):
        # Distinct histories that land on the same state must produce
        # identical subsequent cashflows and states.
        params = TaxParams()
        a = BasisState.flat(80.0)
        a, _ = step_ledger(a, 50.0, 100.0, params)
        b = BasisState.flat(120.0)
        b, _ = step_ledger(b, 90.0, -100.0, params)
        b, _ = step_ledger(b, 50.0, 100.0, params)  # crossing resets history
        assert a == b
        assert step_ledger(a, 70.0, 0.0, params) == step_ledger(b, 70.0, 0.0, params)

    def test_total_cost_identity_random_paths(self):
        # b_t * a_t must track the independent cash-accounting pool.
        rng = np.random.default_rng(1234)
        for _ in range(200):
            n = int(rng.integers(5, 30))
            positions = rng.choice(GRID, size=n)
            prices = rng.uniform(20.0, 400.0, size=n)
            states, _ = run_path(positions, prices)
            expected = pool_total_cost(positions, prices)
            for state, total in zip(states, expected):
                got = state.avg_basis * state.position
                assert math.isclose(got, total, rel_tol=1e-9, abs_tol=1e-6)

    def test_full_liquidation_equivalence(self):
        # Selling an entire long in one step realizes (s - b) * a, equal
        # to proceeds minus the remaining pool cost, 1 part in 1e9.
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            positions = list(rng.choice([100.0, 200.0, 300.0], size=n))
            prices = list(rng.uniform(50.0, 150.0, size=n))
            states, _ = run_path(positions, prices)
            pool = pool_total_cost(positions, prices)[-1]
            state = states[-1]
            final_price = float(rng.uniform(50.0, 150.0))
            ledger_gain = (final_price - state.avg_basis) * state.position
            oracle_gain = final_price * state.position - pool
            assert math.isclose(ledger_gain, oracle_gain, rel_tol=1e-9, abs_tol=1e-6)

    def test_pnl_decomposition_20_step_paths(self):
        # Over paths whose realizations always close whole positions,
        # cash proceeds minus purchases plus terminal value equals the
        # realized P&L implied by (price - basis) * closed quantity plus
        # the terminal unrealized P&L. Partial short covers are excluded:
        # the update rules retain their realization inside the basis.
        rng = np.random.default_rng(7)
        for _ in range(100):
            positions = []
            prev = 0.0
            for _ in range(20):
                candidates = [g for g in GRID if not (prev < g < 0)]
                prev = float(rng.choice(candidates))
                positions.append(prev)
            prices = rng.uniform(50.0, 200.0, size=20)
            states, _ = run_path(positions, prices)

            cash = 0.0
            prev_pos = 0.0
            prev_basis = float(prices[0])  # flat reset basis at the start
            realized = 0.0
            for pos, price, state in zip(positions, prices, states):
                cash -= price * (pos - prev_pos)
                sold, covered = closed_quantities(prev_pos, pos)
                realized += (price - prev_basis) * sold
                realized += (prev_basis - price) * covered
                prev_pos = pos
                prev_basis = state.avg_basis
            final = states[-1]
            unrealized = (prices[-1] - final.avg_basis) * final.position
            wealth = cash + final.position * prices[-1]
            assert math.isclose(
                wealth, realized + unrealized, rel_tol=1e-9, abs_tol=1e-6
            )


# ---------------------------------------------------------------------------
# The step as it was written before the shared zero cashflow: a separate
# tax and cost computation per step and a new cashflow every time. The
# ledger must reproduce it bit for bit.


def reference_step_ledger(prev, next_price, next_position, params):
    if next_price <= 0:
        raise ValueError(f"next_price must be positive, got {next_price}")
    a, a_next = prev.position, next_position
    sold = a - max(a_next, 0.0) if (a >= a_next and a >= 0) else 0.0
    covered = -(a + max(-a_next, 0.0)) if (a <= a_next and a <= 0) else 0.0
    quantity = sold + covered
    gain_tax = 0.0
    loss_rebate = 0.0
    if quantity > 0:
        edge = next_price - prev.avg_basis
        if covered > 0 and params.short_cover_convention == "economic":
            edge = -edge
        if edge >= 0:
            gain_rate = (
                params.rate_short
                if prev.avg_holding < params.long_term_threshold
                else params.rate_long
            )
            gain_tax = edge * quantity * gain_rate
        else:
            loss_rebate = -edge * quantity * params.rate_short
    if params.txn_cost_mode == "notional":
        cost = params.txn_cost_rate * next_price * abs(next_position - prev.position)
    else:
        cost = params.txn_cost_rate * abs(next_price - prev.avg_basis) * quantity
    cashflow = TaxCashflow(gain_tax=gain_tax, loss_rebate=loss_rebate, txn_cost=cost)
    basis = update_basis(prev, next_price, next_position)
    holding = update_holding(prev, basis, next_price, next_position, 1.0)
    state = BasisState(
        position=float(next_position), avg_basis=basis, avg_holding=holding
    )
    return state, cashflow


def float_bits(values):
    return [struct.pack("<d", v) for v in values]


POSITIONS = st.one_of(
    st.sampled_from(GRID), st.floats(-300.0, 300.0, allow_subnormal=False)
)


class TestStepLedgerMatchesReference:
    @given(
        position=POSITIONS,
        basis=st.floats(1.0, 500.0),
        holding=st.floats(0.0, 600.0),
        price=st.floats(1.0, 500.0),
        target=st.one_of(POSITIONS, st.none()),
        rate=st.sampled_from([0.0, 0.001, 0.01]),
        mode=st.sampled_from(["notional", "pnl"]),
        convention=st.sampled_from(["as-written", "economic"]),
    )
    @settings(max_examples=400)
    def test_bit_identical(
        self, position, basis, holding, price, target, rate, mode, convention
    ):
        # ``None`` holds the position, the case the shared cashflow serves.
        target = position if target is None else target
        prev = BasisState(position=position, avg_basis=basis, avg_holding=holding)
        params = TaxParams(
            txn_cost_rate=rate, txn_cost_mode=mode, short_cover_convention=convention
        )
        try:
            expected = reference_step_ledger(prev, price, target, params)
        except LedgerError:
            with pytest.raises(LedgerError):
                step_ledger(prev, price, target, params)
            return
        state, cashflow = step_ledger(prev, price, target, params)
        exp_state, exp_cashflow = expected
        assert float_bits(
            [state.position, state.avg_basis, state.avg_holding]
        ) == float_bits(
            [exp_state.position, exp_state.avg_basis, exp_state.avg_holding]
        )
        assert float_bits(
            [cashflow.gain_tax, cashflow.loss_rebate, cashflow.txn_cost, cashflow.net]
        ) == float_bits(
            [
                exp_cashflow.gain_tax,
                exp_cashflow.loss_rebate,
                exp_cashflow.txn_cost,
                exp_cashflow.net,
            ]
        )

    def test_hold_shares_one_zero_cashflow(self):
        params = TaxParams()
        prev = BasisState(position=100.0, avg_basis=90.0, avg_holding=3.0)
        _, first = step_ledger(prev, 95.0, 100.0, params)
        _, second = step_ledger(prev, 80.0, 100.0, params)
        assert first is second
        assert (first.gain_tax, first.loss_rebate, first.txn_cost) == (0.0, 0.0, 0.0)
        _, traded = step_ledger(prev, 95.0, 0.0, params)
        assert traded is not first
