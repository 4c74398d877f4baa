"""Closed-form predictions, thresholds, and seeded counting experiments.

Normalization note: count_ordered_tuples reports ORDERED tuples, while
the closed-form m^k / k! * q^(-k(k-1)/2) predicts unordered k-element
systems (its 1/k! is |Aut(K_k)|).  Experiment rows therefore carry the
predictions scaled by k! so that observed and predicted live on the same
scale; the raw formulas stay available as predict_tuple_count and
predict_copy_count.

Reproducibility contract (documented, fixed):

* trial seed = splitmix64(master_seed XOR splitmix64((density_index << 32)
  XOR trial_index)), all in 64-bit arithmetic;
* subsets come from a partial Fisher-Yates shuffle driven by numpy's
  PCG64: arr = [0..n), then for i in 0..m-1 swap arr[i] with
  arr[Generator(PCG64(seed)).integers(i, n)], keep arr[:m].

Identical configs therefore produce byte-identical reports on every
platform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from .counting import VertexSubset, count_ordered_tuples
from .graphs import DEFAULT_MAX_VERTICES, OrthoGraph, build_affine_graph

_MASK64 = (1 << 64) - 1


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def predict_tuple_count(m: int, q: int, k: int) -> float:
    """m^k / k! * q^(-k(k-1)/2): the expected number of k-element systems
    of mutually orthogonal vectors among m vectors.  Exact integer
    numerator, one final floating division."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    _check_k(k)
    return m**k / (math.factorial(k) * q ** (k * (k - 1) // 2))


def predict_copy_count(m: int, n: int, degree: int, k: int) -> float:
    """m^k / k! * (degree/n)^(k(k-1)/2): predicted copies of K_k in a
    uniform m-subset of a pseudo-random n-vertex degree-regular graph."""
    if not 0 < degree <= n:
        raise ValueError(f"need 0 < degree <= n, got degree={degree}, n={n}")
    _check_k(k)
    r = k * (k - 1) // 2
    return m**k * degree**r / (math.factorial(k) * n**r)


def _rational_power(q: int, expo: Fraction) -> float:
    # exact integer power when the exponent is integral and small enough
    if expo.denominator == 1 and expo.numerator * q.bit_length() < 1000:
        return float(q ** expo.numerator)
    return float(q) ** float(expo)


def threshold_exponent_new(d: int, k: int) -> Fraction:
    _check_k(k)
    return Fraction(d, 2) + (k - 1)


def threshold_exponent_old(d: int, k: int) -> Fraction:
    _check_k(k)
    return Fraction(d * (k - 1), k) + Fraction(k - 1, 2) + Fraction(1, k)


def threshold_new(q: int, d: int, k: int) -> float:
    """Subset size scale q^(d/2 + k - 1) above which the prediction holds."""
    return _rational_power(q, threshold_exponent_new(d, k))


def threshold_old(q: int, d: int, k: int) -> float:
    """Earlier comparison threshold q^(d(k-1)/k + (k-1)/2 + 1/k); the
    multiplicative constant attached to it is unspecified and not modeled."""
    return _rational_power(q, threshold_exponent_old(d, k))


@dataclass(frozen=True)
class ThresholdComparison:
    """Both threshold exponents as exact rationals plus their values.

    No claim is made about which is smaller; at k = 2 the exponents agree
    identically, elsewhere the difference can take either sign."""

    q: int
    d: int
    k: int
    exponent_new: Fraction
    exponent_old: Fraction
    exponent_difference: Fraction
    value_new: float
    value_old: float


def compare_thresholds(q: int, d: int, k: int) -> ThresholdComparison:
    en, eo = threshold_exponent_new(d, k), threshold_exponent_old(d, k)
    return ThresholdComparison(
        q=q,
        d=d,
        k=k,
        exponent_new=en,
        exponent_old=eo,
        exponent_difference=eo - en,
        value_new=_rational_power(q, en),
        value_old=_rational_power(q, eo),
    )


def validity_margin(m: int, q: int, d: int, k: int) -> float:
    """m / (lambda * (n/degree)^(k-1)) for the all-vectors graph, with
    lambda = (q-1) * q^((d-2)/2) and k - 1 the degree of K_k.  Margins
    above 1 mean the counting lemma's hypothesis is comfortably met."""
    _check_k(k)
    lam = (q - 1) * math.sqrt(q ** (d - 2))
    n = q**d - 1
    degree = q ** (d - 1) - 1
    return m / (lam * (n / degree) ** (k - 1))


def splitmix64(x: int) -> int:
    """The SplitMix64 finalizer; the fixed seed-mixing primitive."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(master_seed: int, density_index: int, trial_index: int) -> int:
    """Derive a per-trial seed; see the module docstring for the exact
    fixed mixing recipe."""
    inner = splitmix64(((density_index << 32) ^ trial_index) & _MASK64)
    return splitmix64((master_seed ^ inner) & _MASK64)


def sample_subset(graph: OrthoGraph, m: int, seed: int) -> VertexSubset:
    """Uniform m-subset of vertices via seeded partial Fisher-Yates on a
    PCG64 stream; identical (graph, m, seed) gives identical subsets."""
    if not 0 <= m <= graph.n:
        raise ValueError(f"subset size {m} out of range [0, {graph.n}]")
    rng = np.random.Generator(np.random.PCG64(seed))
    # arr[j] of the recipe is moved.get(j, j); arr[i] is not read after step i
    moved: dict[int, int] = {}
    picks = []
    for i in range(m):
        j = int(rng.integers(i, graph.n))
        picks.append(moved.get(j, j))
        moved[j] = moved.pop(i, i)
    return VertexSubset(graph, np.sort(picks))


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one counting experiment on the all-vectors graph.

    densities entries are either explicit subset sizes (ints) or fractions
    of the vertex count (floats in (0, 1], resolved as floor(f * n)).
    """

    q: int
    d: int
    k: int
    densities: tuple[float | int, ...]
    trials: int
    master_seed: int

    def __post_init__(self):
        _check_k(self.k)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.densities:
            raise ValueError("at least one density is required")
        for dens in self.densities:
            if isinstance(dens, int):
                if dens < 1:
                    raise ValueError(f"explicit subset size must be >= 1, got {dens}")
            elif not 0 < dens <= 1:
                raise ValueError(f"fractional density must be in (0, 1], got {dens}")
        if self.d < 2 * self.k - 1:
            warnings.warn(
                f"d = {self.d} is below 2k - 1 = {2 * self.k - 1}; the counting "
                "lemma's hypothesis is violated and predictions may be off",
                stacklevel=3,  # the caller of the generated __init__
            )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        """Read plain "key = value" lines: q, d, k, densities (comma
        list), trials, seed.  Blank lines and #-comments are skipped;
        unknown keys are an error."""
        values: dict[str, str] = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value.strip()
        known = {"q", "d", "k", "densities", "trials", "seed"}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = known - set(values)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        densities = tuple(
            float(tok) if "." in tok else int(tok)
            for tok in (t.strip() for t in values["densities"].split(","))
            if tok
        )
        return cls(
            q=int(values["q"]),
            d=int(values["d"]),
            k=int(values["k"]),
            densities=densities,
            trials=int(values["trials"]),
            master_seed=int(values["seed"]),
        )

    def resolve_size(self, density: float | int, n: int) -> int:
        m = density if isinstance(density, int) else math.floor(density * n)
        if not 0 < m <= n:
            raise ValueError(f"density {density!r} resolves to m = {m}, outside (0, {n}]")
        return m


@dataclass(frozen=True)
class CountReport:
    """One experiment row; field names equal the CSV columns."""

    q: int
    d: int
    k: int
    m: int
    trial: int
    observed: int
    predicted_main: float
    predicted_alon: float
    relative_error: float
    validity_margin: float
    threshold_new: float
    threshold_old: float
    seed_used: int


CSV_COLUMNS = tuple(f.name for f in fields(CountReport))


def run_experiment(
    config: ExperimentConfig, max_vertices: int = DEFAULT_MAX_VERTICES
) -> list[CountReport]:
    """Build the graph once, then count ordered k-tuples in seeded random
    subsets for every density x trial combination.  Rows come out in
    (density index, trial index) order and depend only on the config."""
    q, d, k = config.q, config.d, config.k
    # the thresholds come first: for a huge k they overflow before the
    # graph is built or k! is taken
    t_new = threshold_new(q, d, k)
    t_old = threshold_old(q, d, k)
    graph = build_affine_graph(q, d, max_vertices=max_vertices)
    scale = math.factorial(k)
    rows: list[CountReport] = []
    for density_index, density in enumerate(config.densities):
        m = config.resolve_size(density, graph.n)
        predicted_main = scale * predict_tuple_count(m, q, k)
        predicted_alon = scale * predict_copy_count(m, graph.n, graph.degree, k)
        margin = validity_margin(m, q, d, k)
        for trial_index in range(config.trials):
            seed = mix_seed(config.master_seed, density_index, trial_index)
            subset = sample_subset(graph, m, seed)
            observed = count_ordered_tuples(subset, k)
            relative_error = (
                abs(observed - predicted_main) / predicted_main
                if predicted_main > 0
                else float("nan")
            )
            rows.append(
                CountReport(
                    q=q,
                    d=d,
                    k=k,
                    m=m,
                    trial=trial_index,
                    observed=observed,
                    predicted_main=predicted_main,
                    predicted_alon=predicted_alon,
                    relative_error=relative_error,
                    validity_margin=margin,
                    threshold_new=t_new,
                    threshold_old=t_old,
                    seed_used=seed,
                )
            )
    return rows
