"""Tax-aware stock trading simulator.

A capital-gains ledger built on average basis and average holding period,
an episodic trading environment that feeds tax cashflows into the reward,
and a from-scratch PPO trainer with an evaluation command line.
"""

from .env import Action, EnvConfig, TradingEnv, Transition
from .ledger import (
    BasisState,
    LedgerError,
    TaxCashflow,
    TaxParams,
    compute_tax,
    realized_quantity,
    step_ledger,
    transaction_cost,
    update_basis,
    update_holding,
)
from .market_data import (
    EpisodeWindow,
    MarketDataError,
    PriceSeries,
    load_csv,
    sample_window,
    synthetic_gbm,
    write_csv,
)
from .nets import MlpParams, PolicyBundle, init_bundle, load_bundle, save_bundle
from .ppo import PpoConfig, TrajectoryBuffer, compute_gae, run_epoch, train

__version__ = "0.1.0"

__all__ = [
    "Action",
    "BasisState",
    "EnvConfig",
    "EpisodeWindow",
    "LedgerError",
    "MarketDataError",
    "MlpParams",
    "PolicyBundle",
    "PpoConfig",
    "PriceSeries",
    "TaxCashflow",
    "TaxParams",
    "TradingEnv",
    "TrajectoryBuffer",
    "Transition",
    "compute_gae",
    "compute_tax",
    "init_bundle",
    "load_bundle",
    "load_csv",
    "realized_quantity",
    "run_epoch",
    "sample_window",
    "save_bundle",
    "step_ledger",
    "synthetic_gbm",
    "train",
    "transaction_cost",
    "update_basis",
    "update_holding",
    "write_csv",
]
