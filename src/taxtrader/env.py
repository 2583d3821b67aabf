"""Episodic trading MDP over a daily price series with the tax ledger.

One episode walks a fixed window of the series. Each step the agent picks
a target position of minus one, zero, or plus one lot; the trade executes
at the next close. The reward is the old position's mark-to-market move
plus the ledger's net cashflow (rebates minus taxes minus costs), so
summed rewards equal the change in a cash account that trades at the same
prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Sequence

import numpy as np

from .ledger import BasisState, TaxCashflow, TaxParams, step_ledger
from .market_data import EpisodeWindow, PriceSeries

__all__ = ["Action", "EnvConfig", "Transition", "TradingEnv", "episode_return"]


class Action(IntEnum):
    SHORT = 0
    FLAT = 1
    LONG = 2


_ACTION_SIGN = (-1.0, 0.0, 1.0)


@dataclass
class EnvConfig:
    """Environment knobs; scale fields of ``None`` use the documented defaults.

    Prices and the average basis are normalized by the window's first
    price, volume by the series mean volume, holding by one trading year,
    and position by the lot size. ``include_position`` adds the current
    position to the four market observables; turning it off leaves the
    process partially observed.
    """

    tax_enabled: bool = True
    lot_size: float = 100.0
    episode_length: int = 1260
    tax_params: TaxParams = field(default_factory=TaxParams)
    include_position: bool = True
    price_scale: float | None = None
    volume_scale: float | None = None
    holding_scale: float = 252.0
    position_scale: float | None = None

    def __post_init__(self) -> None:
        if self.lot_size <= 0:
            raise ValueError("lot_size must be positive")
        if self.episode_length < 1:
            raise ValueError("episode_length must be at least 1")


@dataclass(frozen=True)
class Transition:
    observation: np.ndarray
    action: int
    reward: float
    cashflow: TaxCashflow
    done: bool


class TradingEnv:
    """Single-caller episodic environment; independent instances are isolated."""

    def __init__(self, config: EnvConfig, series: PriceSeries):
        self.config = config
        self.series = series
        self._mean_volume = float(series.volumes.mean())
        self._window: EpisodeWindow | None = None
        self._t = 0
        self._done = True
        self.state = BasisState.flat(float(series.closes[0]))
        self._price_scale = 1.0

    @property
    def obs_dim(self) -> int:
        return 5 if self.config.include_position else 4

    @property
    def window(self) -> EpisodeWindow:
        if self._window is None:
            raise RuntimeError("environment has not been reset")
        return self._window

    @property
    def first_price(self) -> float:
        return float(self.series.closes[self.window.start_index])

    def reset(self, window: EpisodeWindow) -> np.ndarray:
        """Start an episode on ``window``: flat position, basis at first price."""
        window.validate_for(self.series)
        self._window = window
        self._t = 0
        self._done = False
        first = float(self.series.closes[window.start_index])
        self.state = BasisState.flat(first)
        cfg = self.config
        self._price_scale = cfg.price_scale if cfg.price_scale is not None else first
        return self._observation(window.start_index)

    def step(self, action: int) -> Transition:
        """Trade toward the action's target position at the next close."""
        if self._done:
            raise RuntimeError("episode is done; reset before stepping")
        if action not in (0, 1, 2):
            raise ValueError(f"action must be 0, 1, or 2, got {action}")
        cfg = self.config
        window = self._window
        idx = window.start_index + self._t
        closes = self.series.closes
        price_now = float(closes[idx])
        price_next = float(closes[idx + 1])
        target = cfg.lot_size * _ACTION_SIGN[action]
        prev = self.state
        new_state, cashflow = step_ledger(prev, price_next, target, cfg.tax_params)
        if not cfg.tax_enabled and (cashflow.gain_tax or cashflow.loss_rebate):
            cashflow = TaxCashflow(
                gain_tax=0.0, loss_rebate=0.0, txn_cost=cashflow.txn_cost
            )
        reward = prev.position * (price_next - price_now) + cashflow.net
        self.state = new_state
        self._t += 1
        self._done = self._t >= window.length
        return Transition(
            observation=self._observation(idx + 1),
            action=int(action),
            reward=reward,
            cashflow=cashflow,
            done=self._done,
        )

    def _observation(self, idx: int) -> np.ndarray:
        """Features at series row ``idx``, the episode's current step."""
        cfg = self.config
        state = self.state
        price_scale = self._price_scale
        volume_scale = (
            cfg.volume_scale if cfg.volume_scale is not None else self._mean_volume
        )
        features = [
            float(self.series.closes[idx]) / price_scale,
            float(self.series.volumes[idx]) / volume_scale,
            state.avg_basis / price_scale,
            state.avg_holding / cfg.holding_scale,
        ]
        if cfg.include_position:
            position_scale = (
                cfg.position_scale if cfg.position_scale is not None else cfg.lot_size
            )
            features.append(state.position / position_scale)
        return np.array(features)


def episode_return(
    transitions: Sequence[Transition], lot_size: float, first_price: float
) -> float:
    """Sum of rewards over one initial lot notional, dimensionless."""
    if not transitions:
        raise ValueError("empty episode")
    total = sum(t.reward for t in transitions)
    return total / (lot_size * first_price)
