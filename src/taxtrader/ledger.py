"""Average-basis capital gains ledger for signed share positions.

The tax state of a position is compressed into three numbers: the signed
share count, the average basis per share, and the basis-weighted average
holding period in trading days. All three update from one step to the
next using only the previous state, the new price, and the new position,
so a trading process augmented with this state stays Markovian.

Update rules, per transition from position ``a`` to ``a_next`` at price
``s``:

  * ``a * a_next <= 0`` (position crosses or touches zero): every open
    lot is closed, basis resets to ``s`` and holding to 0.
  * ``a_next < a < 0`` (growing a short): the new average basis is the
    total (negative) proceeds divided by the (negative) position.
  * otherwise: buys blend new cost into the total at ``s``; sells leave
    the average basis unchanged because they release cost and shares
    proportionally.

Realized quantity for taxation is the number of shares closed out on the
step: sells of a long position (including a wash-sell straight into a
short) and buy-backs of a short position (including covering straight
into a long). Gains are taxed at the long-term rate once the average
holding period reaches the long-term threshold, otherwise at the
short-term rate; realized losses rebate at the short-term rate.

Short covers are taxed exactly as the update rules above prescribe: a
cover at a price above basis counts as a gain. That inverts short-sale
economics, so ``TaxParams.short_cover_convention = "economic"`` swaps
gain and rebate roles for realizations that close short exposure.

All functions are pure; states are immutable value types.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BasisState",
    "TaxParams",
    "TaxCashflow",
    "LedgerError",
    "basis_branch",
    "update_basis",
    "update_holding",
    "realized_quantity",
    "compute_tax",
    "transaction_cost",
    "step_ledger",
]

TXN_COST_MODES = ("notional", "pnl")
SHORT_COVER_CONVENTIONS = ("as-written", "economic")

# One ledger step is one trading day: an open position ages by this much.
DAYS_PER_STEP = 1.0


class LedgerError(RuntimeError):
    """Internal-logic failure (unreachable denominator); aborts the step."""


@dataclass(frozen=True)
class BasisState:
    """Markov tax state: position, average basis, average holding period.

    ``avg_basis`` is per share and ``avg_holding`` is in trading days.
    When ``position`` is zero they carry no economic meaning; the update
    rules normalize them to the price of the step that flattened the
    position and 0 days. On the flat/one-lot position grid the basis and
    holding stay non-negative; partial covers of a short after a large
    adverse move are carried through the update rules literally and can
    drive them negative.
    """

    position: float
    avg_basis: float
    avg_holding: float

    @classmethod
    def flat(cls, price: float) -> "BasisState":
        return cls(position=0.0, avg_basis=float(price), avg_holding=0.0)


@dataclass(frozen=True)
class TaxParams:
    """Tax rates, long-term threshold, and transaction-cost settings.

    There is no annual cap on offsetting ordinary income with excess
    capital losses: the per-step ledger cannot enforce one (it would need
    non-Markov year-to-date state), so losses rebate uncapped.
    """

    rate_long: float = 0.15
    rate_short: float = 0.25
    long_term_threshold: float = 252.0
    txn_cost_rate: float = 0.001
    txn_cost_mode: str = "notional"
    short_cover_convention: str = "as-written"

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate_long <= self.rate_short < 1.0:
            raise ValueError(
                f"rates must satisfy 0 <= rate_long <= rate_short < 1, "
                f"got long={self.rate_long}, short={self.rate_short}"
            )
        if self.long_term_threshold <= 0:
            raise ValueError("long_term_threshold must be positive")
        if self.txn_cost_rate < 0:
            raise ValueError("txn_cost_rate must be non-negative")
        if self.txn_cost_mode not in TXN_COST_MODES:
            raise ValueError(f"txn_cost_mode must be one of {TXN_COST_MODES}")
        if self.short_cover_convention not in SHORT_COVER_CONVENTIONS:
            raise ValueError(
                f"short_cover_convention must be one of {SHORT_COVER_CONVENTIONS}"
            )


@dataclass(frozen=True)
class TaxCashflow:
    """Cash effect of one step: tax charged, rebate earned, cost paid."""

    gain_tax: float
    loss_rebate: float
    txn_cost: float

    @property
    def net(self) -> float:
        return self.loss_rebate - self.gain_tax - self.txn_cost


# The cashflow of every step that realizes nothing and costs nothing (a
# hold, or staying flat): one shared immutable value, not one per step.
_NO_CASHFLOW = TaxCashflow(gain_tax=0.0, loss_rebate=0.0, txn_cost=0.0)


def basis_branch(prev_position: float, next_position: float) -> int:
    """Which of the three update branches applies (1 reset, 2 short-grow, 3 blend)."""
    if prev_position * next_position <= 0:
        return 1
    if next_position < prev_position < 0:
        return 2
    return 3


def update_basis(prev: BasisState, next_price: float, next_position: float) -> float:
    """Average basis after moving to ``next_position`` at ``next_price``."""
    if next_price <= 0:
        raise ValueError(f"next_price must be positive, got {next_price}")
    a, a_next = prev.position, next_position
    branch = basis_branch(a, a_next)
    if branch == 1:
        return float(next_price)
    if branch == 2:
        total = prev.avg_basis * a + next_price * (a_next - a)
        return total / a_next
    if max(a, a_next) == 0:
        raise LedgerError(
            f"zero denominator outside the reset branch: a={a}, a_next={a_next}"
        )
    if a_next <= a:
        # Nothing bought: cost and shares shrink proportionally, so the
        # average is bit-identical, not merely close.
        return float(prev.avg_basis)
    return (prev.avg_basis * a + next_price * (a_next - a)) / a_next


def update_holding(
    prev: BasisState,
    next_basis: float,
    next_price: float,
    next_position: float,
    dt: float,
) -> float:
    """Average holding period after the same transition as ``update_basis``.

    ``next_basis`` must be the basis produced by ``update_basis`` for this
    transition. The open position ages by ``dt`` before blending, so the
    result is the basis-weighted mean age of the surviving cost.
    """
    a, a_next = prev.position, next_position
    branch = basis_branch(a, a_next)
    if branch == 1:
        return 0.0
    denom = next_basis * (a_next if branch == 2 else max(a, a_next))
    if denom == 0:
        raise LedgerError(
            f"zero holding denominator: next_basis={next_basis}, "
            f"a={a}, a_next={a_next}"
        )
    # The weight is exactly 1 when basis and position are unchanged, so a
    # no-trade step ages the holding by dt with no rounding.
    weight = (prev.avg_basis * a) / denom
    return weight * (prev.avg_holding + dt)


def _realized_split(prev_position: float, next_position: float) -> tuple[float, float]:
    """Shares realized on the step, split into (long sells, short covers).

    At most one component is nonzero: sells require a non-negative
    starting position, covers a non-positive one, and a flat start
    realizes nothing.
    """
    a, a_next = prev_position, next_position
    sold = a - max(a_next, 0.0) if (a >= a_next and a >= 0) else 0.0
    covered = -(a + max(-a_next, 0.0)) if (a <= a_next and a <= 0) else 0.0
    return sold, covered


def realized_quantity(prev_position: float, next_position: float) -> float:
    """Non-negative share count whose gain or loss is realized this step."""
    sold, covered = _realized_split(prev_position, next_position)
    return sold + covered


def transaction_cost(
    prev: BasisState,
    next_price: float,
    next_position: float,
    params: TaxParams,
) -> float:
    """Trading friction for the step; zero when no shares change hands.

    "notional" charges on the traded notional at the execution price;
    "pnl" charges on the absolute realized gain or loss.
    """
    if params.txn_cost_mode == "notional":
        return params.txn_cost_rate * next_price * abs(next_position - prev.position)
    q = realized_quantity(prev.position, next_position)
    return params.txn_cost_rate * abs(next_price - prev.avg_basis) * q


def compute_tax(
    prev: BasisState,
    next_price: float,
    next_position: float,
    params: TaxParams,
) -> TaxCashflow:
    """Tax cashflow for moving to ``next_position`` at ``next_price``.

    The realized quantity times the price-to-basis spread is taxed at the
    holding-period rate when it is a gain and rebated at the short-term
    rate when it is a loss. The holding period of the state *before* the
    transition selects the rate. Under the "economic" convention the
    gain/loss roles are swapped for realizations that close short
    exposure. A step that realizes nothing and costs nothing returns one
    shared zero cashflow.
    """
    if next_price <= 0:
        raise ValueError(f"next_price must be positive, got {next_price}")
    sold, covered = _realized_split(prev.position, next_position)
    quantity = sold + covered
    cost = transaction_cost(prev, next_price, next_position, params)
    if quantity == 0 and cost == 0:
        return _NO_CASHFLOW
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
    return TaxCashflow(gain_tax=gain_tax, loss_rebate=loss_rebate, txn_cost=cost)


def step_ledger(
    prev: BasisState,
    next_price: float,
    next_position: float,
    params: TaxParams,
) -> tuple[BasisState, TaxCashflow]:
    """Advance the ledger one step: tax from the previous state, then update.

    Deterministic and pure; identical inputs give bit-identical outputs.
    """
    cashflow = compute_tax(prev, next_price, next_position, params)
    basis = update_basis(prev, next_price, next_position)
    holding = update_holding(prev, basis, next_price, next_position, DAYS_PER_STEP)
    state = BasisState(
        position=float(next_position), avg_basis=basis, avg_holding=holding
    )
    return state, cashflow
