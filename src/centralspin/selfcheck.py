"""Oracle-equivalence suite behind the ``oracle-check`` CLI command.

Every closed-form route is pitted against an independent one: the
factorized enumeration against the dense-universe oracle, the binomial
reduction against enumeration, the sampler against enumeration (class
masses and Kolmogorov-Smirnov distance), plus the sum rules (the
binomial one at N up to 10^5), bath-independence and worker-invariance
contracts.  Each check returns a CheckResult so callers can print one
line per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, universe
from .core import ModelParams, SystemAmplitudes, branch_flip_profile, dispersed_couplings
from .observables import class_probabilities

# Level of the sampler check, 2 * (1 - Phi(3)): a 3-sigma bound.  Its 12 class
# tails share it, and so do its 4 KS distances.
CLASS_ALPHA = 0.0027


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def ks_distance(samples: np.ndarray, atom_u: np.ndarray, atom_w: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a discrete law.

    Atoms sharing a u value are aggregated first (the CDF jumps once per
    distinct value); both one-sided gaps are then evaluated at every
    jump, where the supremum of the difference is attained.
    """
    order = np.argsort(atom_u, kind="stable")
    u_sorted = atom_u[order]
    w_sorted = atom_w[order]
    u, first = np.unique(u_sorted, return_index=True)
    group_w = np.add.reduceat(w_sorted, first)
    cdf_right = np.cumsum(group_w)
    cdf_left = cdf_right - group_w
    s = np.sort(samples)
    n = s.size
    emp_right = np.searchsorted(s, u, side="right") / n
    emp_left = np.searchsorted(s, u, side="left") / n
    return float(
        max(np.max(np.abs(emp_right - cdf_right)), np.max(np.abs(emp_left - cdf_left)))
    )


def group_universe_by_pattern(params, outcomes):
    """Aggregate universe outcomes by flip pattern: code -> (u set, weight sum)."""
    n = params.n_env
    grouped: dict[int, list] = {}
    for out in outcomes:
        pattern = universe.pattern_between(out.labels[1], out.labels[0], n)
        code = pattern.code()
        u = abs(out.phi[0]) ** 2
        entry = grouped.setdefault(code, [0.0, []])
        entry[0] += out.weight
        entry[1].append(u)
    return grouped


def check_pair_sum_rule(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        params = ModelParams(
            delta=float(rng.uniform(-1, 1)),
            h=tuple(rng.uniform(-2, 2, n)),
        )
        t = float(rng.uniform(0, 300))
        for branch in ("up", "down"):
            prof = branch_flip_profile(params, branch, t)
            worst = max(worst, float(np.max(np.abs(prof.keep + prof.flip - 1.0))))
    return CheckResult("per-spin pair sum", worst <= 1e-12, f"max |keep+flip-1| = {worst:.2e}")


def check_branch_totals(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 13))
        params = ModelParams(delta=float(rng.uniform(-0.5, 0.5)), h=tuple(rng.uniform(-1, 1, n)))
        t = float(rng.uniform(0, 200))
        # All weight on one branch: the enumerated weights are that branch's pattern weights.
        for w_up in (1.0, 0.0):
            dist = engine.enumerate_outcomes(params, SystemAmplitudes.from_up_weight(w_up), t)
            worst = max(worst, abs(dist.total_weight() - 1.0))
    return CheckResult(
        "branch weight total over all patterns", worst <= 1e-9, f"max |sum-1| = {worst:.2e}"
    )


def check_universe_vs_enumeration(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(4):
        n = int(rng.integers(1, 4))
        params = ModelParams(
            delta=float(rng.uniform(-0.8, 0.8)),
            h=tuple(rng.uniform(-1, 1, n)),
            beta=float(rng.choice([0.0, 0.7])),
        )
        alphas = SystemAmplitudes.from_up_weight(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0, 6)))
        t = float(rng.uniform(0.5, 40))
        ensemble = universe.thermal_ensemble(params)
        outcomes = universe.trajectory_ensemble(params, alphas, ensemble, t)
        grouped = group_universe_by_pattern(params, outcomes)
        dist = engine.enumerate_outcomes(params, alphas, t)
        by_code = dict(zip(dist.pattern_codes.tolist(), zip(dist.u, dist.weight)))
        for code, (w_sum, us) in grouped.items():
            u_ref, w_ref = by_code[code]
            worst = max(worst, abs(w_sum - w_ref))
            worst = max(worst, max(abs(u - u_ref) for u in us))
    return CheckResult(
        "dense universe vs factorized enumeration (N<=3)",
        worst <= 1e-9,
        f"max |gap| = {worst:.2e}",
    )


def check_binomial_vs_enumeration(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, t in ((10, 50.0), (12, 150.0)):
        params = ModelParams(delta=0.0, h=(0.01,) * n)
        alphas = SystemAmplitudes.from_up_weight(0.4)
        t = t + float(rng.uniform(0, 1))
        binom = engine.binomial_outcomes(params, alphas, t)
        merged = engine.merge_by_u(engine.enumerate_outcomes(params, alphas, t))
        if len(binom) != len(merged):
            return CheckResult(
                "binomial reduction vs enumeration", False,
                f"atom count mismatch {len(binom)} != {len(merged)}",
            )
        worst = max(worst, float(np.max(np.abs(binom.u - merged.u))))
        worst = max(worst, float(np.max(np.abs(binom.weight - merged.weight))))
    return CheckResult(
        "binomial reduction vs enumeration", worst <= 1e-12, f"max |gap| = {worst:.2e}"
    )


def check_binomial_total_weight(seed: int) -> CheckResult:
    """|sum w - 1| of binomial points at N = 10^3 and 10^5, w_up 0, 0.4 and 1.

    There ``engine.binomial_outcomes`` evaluates only its flip-count
    spans (``engine.binomial_spans``), so a span that cut off weight
    would show here; at N <= 12 the spans cover every count.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (1000, 100_000):
        params = ModelParams(delta=float(rng.uniform(-0.5, 0.5)), h=np.full(n, rng.uniform(0.3, 1)))
        log_fact = engine.log_factorials(n)
        for w_up in (0.0, 0.4, 1.0):
            alphas = SystemAmplitudes.from_up_weight(w_up)
            t = float(rng.uniform(0, 400))
            dist = engine.binomial_outcomes(params, alphas, t, log_fact=log_fact)
            worst = max(worst, abs(dist.total_weight() - 1.0))
    return CheckResult(
        "binomial weight total (N = 1e3, 1e5)", worst <= 1e-9, f"max |sum-1| = {worst:.2e}"
    )


def binomial_two_sided_p(count: int, p: float, log_fact: np.ndarray) -> float:
    """Exact two-sided tail of ``count`` under Binomial(samples, p).

    log_fact is ``engine.log_factorials(samples)``, which a caller with
    many tails at one sample count builds once; log C(samples, k) is
    formed from it as log samples! - log k! - log (samples - k)!.  Twice
    the smaller of P(X <= count) and P(X >= count), at most 1.  At p = 0
    or 1 the count is certain, so the tail is 1 there and 0 elsewhere.
    """
    samples = log_fact.size - 1
    if not 0.0 < p < 1.0:
        return 1.0 if count == (samples if p >= 1.0 else 0) else 0.0
    k = np.arange(samples + 1, dtype=float)
    log_c = log_fact[-1] - log_fact - log_fact[::-1]
    log_pmf = log_c + k * math.log(p) + (samples - k) * math.log1p(-p)
    pmf = np.exp(log_pmf)
    return min(1.0, 2.0 * min(float(pmf[: count + 1].sum()), float(pmf[count:].sum())))


def check_sampler_vs_enumeration(seed: int, samples: int) -> CheckResult:
    """Sampled class counts and u law against the enumerated ones.

    Four times, three classes each: every class count must have an
    exact two-sided binomial tail of at least CLASS_ALPHA / 12, which
    also holds where samples * P is far below 1.  Every KS distance must
    be at most sqrt(ln(8 / CLASS_ALPHA) / (2 samples)): by the
    Dvoretzky-Kiefer-Wolfowitz-Massart inequality, which holds for any
    law, a correct sampler exceeds it with probability at most
    CLASS_ALPHA / 4 (0.0141 at 20,000 draws).
    """
    params = ModelParams(delta=0.0, h=(0.01,) * 10)
    alphas = SystemAmplitudes.from_up_weight(0.4)
    eps = 1e-3
    times = (50.0, 120.0, 200.0, 330.0)
    tail_bound = CLASS_ALPHA / (3 * len(times))
    # DKW-Massart: P(KS > eps) <= 2 exp(-2 samples eps^2), set to CLASS_ALPHA / len(times).
    ks_bound = math.sqrt(math.log(2 * len(times) / CLASS_ALPHA) / (2 * samples))
    least_tail, worst_ks = 1.0, 0.0
    log_fact = engine.log_factorials(samples)
    for t in times:
        exact = engine.enumerate_outcomes(params, alphas, t)
        sampled = engine.sample_outcomes(params, alphas, t, samples, seed)
        p_exact = class_probabilities(exact, eps)
        p_emp = class_probabilities(sampled, eps)
        for pe, pm in zip(p_exact, p_emp):
            least_tail = min(least_tail, binomial_two_sided_p(round(pm * samples), pe, log_fact))
        worst_ks = max(worst_ks, ks_distance(sampled.u, exact.u, exact.weight))
    ok = least_tail >= tail_bound and worst_ks <= ks_bound
    return CheckResult(
        f"sampler vs enumeration (class tails >= {tail_bound:.2e}, KS <= {ks_bound:.4f})",
        ok,
        f"least class tail = {least_tail:.2e}, worst KS = {worst_ks:.4f}",
    )


def check_beta_independence(seed: int, samples: int) -> CheckResult:
    n = 10
    alphas = SystemAmplitudes.from_up_weight(0.4)
    t = 87.3
    for maker in (
        lambda b: engine.enumerate_outcomes(ModelParams(0.0, (0.01,) * n, beta=b), alphas, t),
        lambda b: engine.binomial_outcomes(ModelParams(0.0, (0.01,) * n, beta=b), alphas, t),
        lambda b: engine.sample_outcomes(
            ModelParams(0.0, (0.01,) * n, beta=b), alphas, t, samples, seed
        ),
    ):
        cold, hot = maker(1.0), maker(0.0)
        if not (
            np.array_equal(cold.u, hot.u) and np.array_equal(cold.weight, hot.weight)
        ):
            return CheckResult("bath-independence (beta 0 vs 1)", False, "arrays differ")
    return CheckResult(
        "bath-independence (beta 0 vs 1)", True, "bitwise identical for all engines"
    )


def check_worker_invariance(seed: int, samples: int) -> CheckResult:
    params = ModelParams(delta=0.0, h=dispersed_couplings(0.01, 0.02, 24))
    alphas = SystemAmplitudes.from_up_weight(0.4)
    base = engine.sample_outcomes(params, alphas, 60.0, samples, seed, workers=1)
    for workers in (4, 16):
        other = engine.sample_outcomes(params, alphas, 60.0, samples, seed, workers=workers)
        if not np.array_equal(base.u, other.u):
            return CheckResult(
                "worker invariance", False, f"outputs differ at workers={workers}"
            )
    return CheckResult("worker invariance", True, "identical u arrays for 1/4/16 workers")


def run_all(seed: int = 20260809, samples: int = 20_000) -> list[CheckResult]:
    return [
        check_pair_sum_rule(seed),
        check_branch_totals(seed + 1),
        check_universe_vs_enumeration(seed + 2),
        check_binomial_vs_enumeration(seed + 3),
        check_binomial_total_weight(seed + 7),
        check_sampler_vs_enumeration(seed + 4, samples),
        check_beta_independence(seed + 5, samples),
        check_worker_invariance(seed + 6, samples),
    ]
