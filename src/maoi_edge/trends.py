"""Trend assertions over seed-averaged sweep curves.

The figures of interest report no absolute values, so acceptance works on
qualitative shapes: monotone rises/falls (with slack for sampling noise),
pointwise dominance of one algorithm, flatness of a curve relative to a
reference range, and saturation plateaus.  Checks are data-driven so the
CLI can evaluate a declarative spec against any aggregate table.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

from .system_model import parse_settings


@dataclass(frozen=True)
class TrendResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


@dataclass
class TrendReport:
    results: list[TrendResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [r.line() for r in self.results]
        verdict = "ALL TRENDS PASS" if self.passed else "TREND FAILURES PRESENT"
        return "\n".join(lines + [verdict])


def _curve(rows: Sequence[dict], algorithm: str, metric: str,
           ) -> tuple[list[float], list[float]]:
    pts = sorted((float(r["value"]), float(r[metric]))
                 for r in rows if r["algorithm"] == algorithm)
    if not pts:
        raise ValueError(f"no rows for algorithm {algorithm!r}")
    return [p[0] for p in pts], [p[1] for p in pts]


def check_monotone(xs: Sequence[float], ys: Sequence[float], direction: str,
                   slack: float = 0.05) -> tuple[bool, str]:
    """Monotone trend with slack: wrong-direction steps are tolerated up to
    ``slack`` of the curve's total range."""
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"direction must be increasing/decreasing, got {direction!r}")
    sign = 1.0 if direction == "increasing" else -1.0
    allowed = slack * (max(ys) - min(ys))
    for i in range(len(ys) - 1):
        step = sign * (ys[i + 1] - ys[i])
        if step < -allowed:
            return False, (f"step {xs[i]}->{xs[i + 1]} moves {ys[i]:.6g}->"
                           f"{ys[i + 1]:.6g} against {direction} beyond slack {allowed:.3g}")
    return True, f"{direction} over {len(ys)} points (slack {allowed:.3g})"


def check_dominance(rows: Sequence[dict], metric: str, reference: str,
                    others: list[str] | None = None,
                    tol: float = 1e-6) -> tuple[bool, str]:
    """Reference curve at or below each of ``others`` (default: all) at every grid value."""
    if not others:
        others = sorted({r["algorithm"] for r in rows} - {reference})
    ref_xs, ref_ys = _curve(rows, reference, metric)
    ref = dict(zip(ref_xs, ref_ys))
    for alg in others:
        xs, ys = _curve(rows, alg, metric)
        for x, y in zip(xs, ys):
            if x in ref and ref[x] > y + tol:
                return False, (f"{reference}={ref[x]:.6g} exceeds {alg}={y:.6g} "
                               f"at value {x}")
    return True, f"{reference} <= {{{', '.join(others)}}} at every grid value"


def check_flat(rows: Sequence[dict], metric: str, algorithm: str,
               reference: str, within_frac: float = 0.02) -> tuple[bool, str]:
    """Curve variation bounded by a fraction of the reference curve's range."""
    _, ys = _curve(rows, algorithm, metric)
    _, ref_ys = _curve(rows, reference, metric)
    spread = max(ys) - min(ys)
    allowed = within_frac * (max(ref_ys) - min(ref_ys))
    ok = spread <= allowed
    return ok, (f"{algorithm} spread {spread:.4g} vs allowed {allowed:.4g} "
                f"({within_frac:.0%} of {reference} range)")


def check_plateau(xs: Sequence[float], ys: Sequence[float],
                  step_frac: float = 0.01) -> tuple[bool, str]:
    """Final budget step changes the curve by less than ``step_frac`` relatively."""
    if len(ys) < 2:
        raise ValueError("plateau check needs at least 2 points")
    last, prev = ys[-1], ys[-2]
    rel = abs(last - prev) / max(abs(prev), 1e-12)
    ok = rel < step_frac
    return ok, (f"final step {xs[-2]}->{xs[-1]} relative change {rel:.4%} "
                f"(threshold {step_frac:.0%})")


def _on_curve(check, rows, metric: str, algorithm: str, **params):
    """``check(xs, ys, **params)`` on ``algorithm``'s ``metric`` curve."""
    return check(*_curve(rows, algorithm, metric), **params)


def _spec_kinds(*fns) -> dict[str, str]:
    """Declared type of each argument of ``fns`` that a spec gives (all but the data)."""
    return {name: kind.removesuffix(" | None") for fn in fns for name, kind
            in fn.__annotations__.items() if name not in ("rows", "xs", "ys", "return")}


#: Each check type: its function, and the declared types of the arguments
#: that a spec's other keys give it.
_CHECKS = {
    "monotone": (partial(_on_curve, check_monotone), _spec_kinds(_on_curve, check_monotone)),
    "dominance": (check_dominance, _spec_kinds(check_dominance)),
    "flat": (check_flat, _spec_kinds(check_flat)),
    "plateau": (partial(_on_curve, check_plateau), _spec_kinds(_on_curve, check_plateau)),
}


def evaluate_checks(rows: Sequence[dict], checks: Sequence[dict]) -> TrendReport:
    """Evaluate declarative checks against an aggregate table.

    Each check is a mapping with a ``type`` of ``monotone``, ``dominance``,
    ``flat`` or ``plateau``, an optional ``name``, and the keyword arguments
    of the type's check function, each read by its declared type as config
    values are; a bad argument fails as a check error.
    """
    results = []
    for spec in checks:
        params = dict(spec)
        kind = params.pop("type", None)
        name = params.pop("name", kind)
        try:
            if kind not in _CHECKS:
                raise ValueError(f"unknown check type {kind!r}")
            check, kinds = _CHECKS[kind]
            ok, detail = check(rows, **parse_settings(params, kinds, f"{kind} check"))
        except (KeyError, TypeError, ValueError) as exc:
            ok, detail = False, f"check error: {exc}"
        results.append(TrendResult(name=name, passed=ok, detail=detail))
    return TrendReport(results)


__all__ = ["TrendResult", "TrendReport", "check_monotone", "check_dominance",
           "check_flat", "check_plateau", "evaluate_checks"]
