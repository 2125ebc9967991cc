"""Call-boundary tracing of the maoi_edge layers, from outside the package.

``Tracer.install`` replaces public callables of the package (module
functions and ``ScenarioEvaluator`` methods) with wrappers that record
one span per call: name, start, end, parent span and the solve it belongs
to.  Calls, total time and self time (span minus its child spans) are
accumulated on the fly; the spans themselves stay in memory as compact
arrays and are written to a sidecar file when the run ends.
``Tracer.uninstall`` puts the original callables back.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

# (module name, attribute, span name); "optimizer.ScenarioEvaluator.x"
# patches the method on the class, so every evaluator instance is traced.
TARGETS = (
    ("maoi_edge.scenario", "generate_scenario", "scenario.generate_scenario"),
    # experiments.scenario_for calls the name it imported, not scenario's
    ("maoi_edge.experiments", "generate_scenario", "scenario.generate_scenario"),
    ("maoi_edge.baselines", "solve", "baselines.solve"),
    ("maoi_edge.optimizer.ScenarioEvaluator", "__init__", "optimizer.evaluator_init"),
    ("maoi_edge.optimizer.ScenarioEvaluator", "sampling_step", "optimizer.sampling_step"),
    ("maoi_edge.optimizer.ScenarioEvaluator", "trans_times", "optimizer.trans_times"),
    ("maoi_edge.optimizer.ScenarioEvaluator", "br_round", "optimizer.br_round"),
    ("maoi_edge.optimizer.ScenarioEvaluator", "best_responses", "optimizer.best_responses"),
    ("maoi_edge.optimizer.ScenarioEvaluator", "system_cost", "optimizer.system_cost"),
    ("maoi_edge.optimizer.ScenarioEvaluator", "energy_violation", "optimizer.energy_violation"),
    ("maoi_edge.optimizer.ScenarioEvaluator", "achieved_metrics", "optimizer.achieved_metrics"),
    ("maoi_edge.oracle", "simulate_avg_maoi", "oracle.simulate_avg_maoi"),
    ("maoi_edge.experiments", "validate_oracle", "experiments.validate_oracle"),
    ("maoi_edge.experiments", "run_sweep", "experiments.run_sweep"),
    ("maoi_edge.experiments", "aggregate", "experiments.aggregate"),
    ("maoi_edge.experiments", "write_csv", "experiments.write_csv"),
    ("maoi_edge.trends", "evaluate_checks", "trends.evaluate_checks"),
)

#: Spans kept for the sidecar; calls beyond it still count in the totals.
MAX_KEPT_SPANS = 1_000_000


def _resolve(path: str):
    import importlib
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


class Tracer:
    """Span recorder; install it around the traced part of a run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # per name: [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []          # open spans: [id, start, child seconds]
        self._next_id = 0
        self._solve_id = -1
        self._next_solve = 0
        self.dropped = 0
        self.span_id = array("q")
        self.parent = array("q")
        self.solve = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
            self.stats[span_name] = [0, 0.0, 0.0]
        name_id = self._name_ids[span_name]
        stat = self.stats[span_name]
        starts_solve = span_name == "baselines.solve"
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            outer_solve = self._solve_id
            if starts_solve:
                self._solve_id = self._next_solve
                self._next_solve += 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                self._keep(span_id, stack[-1][0] if stack else -1, name_id,
                           frame[1], end)
                self._solve_id = outer_solve

        traced.__wrapped__ = fn
        return traced

    def _keep(self, span_id: int, parent: int, name_id: int, start: float,
              end: float) -> None:
        if len(self.start) >= MAX_KEPT_SPANS:
            self.dropped += 1
            return
        self.span_id.append(span_id)
        self.parent.append(parent)
        self.solve.append(self._solve_id)
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)

    def install(self) -> None:
        for owner_path, attr, span_name in TARGETS:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def write_sidecar(self, path: Path) -> None:
        """Write every kept span as columns of a compressed ``.npz`` file."""
        import numpy as np
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min(self.start, default=0.0)
        np.savez_compressed(
            path, names=np.array(self.names), dropped=np.array(self.dropped),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            solve=np.frombuffer(self.solve, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_s=np.frombuffer(self.start, dtype=np.float64) - t0,
            end_s=np.frombuffer(self.end, dtype=np.float64) - t0)
