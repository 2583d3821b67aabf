"""Hooks that time the taxtrader package's public functions from outside.

Nothing in the package is edited: the hooks replace module attributes
and class methods for the life of the benchmark process and put the
originals back on ``restore``. There are two groups.

* Boundary hooks fire at most once per episode or update iteration, so
  the untraced run keeps them: ``TradingEnv.reset`` marks episode
  boundaries, ``nets.backward`` update iterations, ``ppo.run_epoch``
  epochs, ``cli.run_episodes`` evaluation passes, and the protocol entry
  point's ``train`` and ``run_episodes`` references its phases. Spans
  with parent ids are kept for episodes, epochs, evaluations and phases.
  Every boundary call's return is also recorded as a mark; marks cut an
  operation into segments that are the same work in every repeat.
* Call hooks run hundreds of thousands of times per operation, so they
  are installed only for the traced repeat and only aggregate: call count,
  total time and self time (total minus the time spent in hooked
  callees). The time a hook itself costs is measured and kept apart,
  so self times, hook time and the residual add up to the repeat's wall.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from taxtrader import cli, env, ledger, market_data, nets, ppo

# (owner, attribute, layer name) of the per-call hooks.
CALL_TARGETS = (
    (nets, "forward", "nets.forward"),
    (nets, "sample_action", "nets.sample_action"),
    (nets, "forward_cached", "nets.forward_cached"),
    (nets, "adam_step", "nets.adam_step"),
    (nets, "save_bundle", "nets.save_bundle"),
    (nets, "load_bundle", "nets.load_bundle"),
    (env.TradingEnv, "step", "env.step"),
    (env, "step_ledger", "ledger.step_ledger"),
    (market_data, "load_csv", "market_data.load_csv"),
)


class Tracer:
    """Span and per-call recorder shared by every hook of one process."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.aggs: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.hook_s = [0.0]
        self.spans: list[tuple] = []  # (id, parent, name, start, end)
        self.episode_ms: list[float] = []
        self.epoch_s: list[float] = []
        self.eval_results: list[list] = []
        self.marks: list[float] = []  # end times of boundary calls
        self.counts = {"trades": 0, "realizes": 0, "policy_backward": 0}
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._span_stack: list[int] = []
        self._next_id = 0
        self._open_episodes: dict[int, tuple[float, int | None]] = {}
        self._boundary: list[tuple] = []
        self._calls: list[tuple] = []

    # -- aggregation ---------------------------------------------------

    def reset_aggregates(self) -> None:
        for agg in self.aggs.values():
            agg[:] = [0, 0.0, 0.0]
        self.hook_s[0] = 0.0
        for key in self.counts:
            self.counts[key] = 0

    def _agg(self, name: str) -> list:
        return self.aggs.setdefault(name, [0, 0.0, 0.0])

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span around calls into the package."""
        sid = self._new_id()
        parent = self._span_stack[-1] if self._span_stack else None
        self._span_stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            self._span_stack.pop()
            self.spans.append((sid, parent, name, start, self.clock()))

    def _wrap(self, name, fn, after=None, span=False, mark=False):
        agg = self._agg(name)
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans
        marks = self.marks
        hook_s = self.hook_s
        clock = self.clock
        tracer = self

        def hooked(*args, **kwargs):
            enter = clock()
            if span:
                sid = tracer._new_id()
                parent = span_stack[-1] if span_stack else None
                span_stack.append(sid)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                inner = end - start
                child = stack.pop()
                if span:
                    span_stack.pop()
                    spans.append((sid, parent, name, start, end))
            agg[0] += 1
            agg[1] += inner
            agg[2] += inner - child
            if mark:
                marks.append(end)
            if after is not None:
                after(args, result, start, end)
            leave = clock()
            hook_s[0] += (leave - enter) - inner
            if stack:
                stack[-1] += leave - enter
            return result

        hooked.__wrapped__ = fn
        return hooked

    def _patch(self, group, owner, attr, name, after=None, span=False,
               inner=None, mark=False):
        """Replace ``owner.attr`` by a hook around it (or around ``inner``)."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        group.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, inner or original, after, span, mark))

    # -- boundary hooks ------------------------------------------------

    def _close_episode(self, env_key: int, end: float) -> None:
        opened = self._open_episodes.pop(env_key, None)
        if opened is not None:
            start, parent = opened
            self.episode_ms.append((end - start) * 1e3)
            self.spans.append((self._new_id(), parent, "episode", start, end))

    def _after_reset(self, args, result, start, end) -> None:
        key = id(args[0])
        self._close_episode(key, start)
        parent = self._span_stack[-1] if self._span_stack else None
        self._open_episodes[key] = (start, parent)

    def _after_run_epoch(self, args, result, start, end) -> None:
        self.epoch_s.append(end - start)
        # The rollout's last episode is cut by the buffer, not finished.
        self._open_episodes.pop(id(args[0]), None)

    def _after_run_episodes(self, args, result, start, end) -> None:
        self._close_episode(id(args[0]), end)
        self.eval_results.append(result)

    def install_boundary(self, protocol_module=None) -> None:
        """Hooks that stay on in every run; each return is also a mark.

        ``nets.backward`` runs once per update iteration, so its marks cut
        an epoch's update into pieces of a few milliseconds.
        """
        def hook(owner, attr, name, after=None, span=False, inner=None):
            self._patch(self._boundary, owner, attr, name, after, span, inner,
                        mark=True)

        hook(env.TradingEnv, "reset", "env.reset", self._after_reset)
        hook(nets, "backward", "nets.backward", self._after_backward)
        hook(ppo, "run_epoch", "ppo.run_epoch", self._after_run_epoch, span=True)
        hook(ppo, "compute_gae", "ppo.compute_gae", span=True)
        hook(ppo, "train", "ppo.train", span=True)
        hook(cli, "run_episodes", "cli.run_episodes", self._after_run_episodes,
             span=True)
        if protocol_module is not None:
            # The entry point imported these by name; route its references
            # through the hooks above and mark the protocol's phases.
            hook(protocol_module, "train", "protocol.train", span=True,
                 inner=ppo.train)
            hook(protocol_module, "run_episodes", "protocol.eval", span=True,
                 inner=cli.run_episodes)
            hook(protocol_module, "run_seed", "protocol.run_seed", span=True)

    # -- call hooks ----------------------------------------------------

    def _after_step_ledger(self, args, result, start, end) -> None:
        prev, next_position = args[0], args[2]
        counts = self.counts
        if next_position != prev.position:
            counts["trades"] += 1
        if ledger.realized_quantity(prev.position, next_position) > 0:
            counts["realizes"] += 1

    def _after_backward(self, args, result, start, end) -> None:
        if args[0].out_dim != 1:  # the value net has one output
            self.counts["policy_backward"] += 1

    def install_calls(self) -> None:
        after = {"ledger.step_ledger": self._after_step_ledger}
        for owner, attr, name in CALL_TARGETS:
            self._patch(self._calls, owner, attr, name, after.get(name))

    def remove_calls(self) -> None:
        self._unpatch(self._calls)

    def restore(self) -> None:
        self._unpatch(self._calls)
        self._unpatch(self._boundary)

    @staticmethod
    def _unpatch(group: list) -> None:
        while group:
            owner, attr, original = group.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def take_eval_results(self) -> list[list]:
        results, self.eval_results = self.eval_results, []
        return results

    def epoch_phases(self, since: float, until: float) -> tuple[float, float, float]:
        """(rollout, update, epoch) seconds of the epochs run in the window.

        The rollout runs from the epoch's start to its GAE call; the
        update runs from the end of GAE to the end of the epoch.
        """
        epochs = {s[0]: s for s in self.spans
                  if s[2] == "ppo.run_epoch" and since <= s[3] <= until}
        rollout = update = total = 0.0
        for sid, parent, name, start, end in self.spans:
            if name == "ppo.compute_gae" and parent in epochs:
                e_start, e_end = epochs[parent][3], epochs[parent][4]
                rollout += start - e_start
                update += e_end - end
                total += e_end - e_start
        return rollout, update, total

    def span_seconds(self, name: str, since: float, until: float) -> float:
        return sum(s[4] - s[3] for s in self.spans
                   if s[2] == name and since <= s[3] <= until)

    def spans_json(self, since: float, until: float) -> list[dict]:
        """Spans that started in the window, times relative to the tracer's start."""
        return [
            {"id": sid, "parent": parent, "name": name,
             "start_s": start - self.t0, "end_s": end - self.t0}
            for sid, parent, name, start, end in sorted(self.spans,
                                                        key=lambda s: s[3])
            if since <= start <= until
        ]
