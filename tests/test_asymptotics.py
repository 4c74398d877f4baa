"""Prediction formulas, thresholds, seeding, and the experiment driver."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocount.asymptotics import (
    CSV_COLUMNS,
    ExperimentConfig,
    compare_thresholds,
    mix_seed,
    predict_copy_count,
    predict_tuple_count,
    run_experiment,
    sample_subset,
    splitmix64,
    threshold_new,
    threshold_old,
    validity_margin,
)
from orthocount.counting import VertexSubset, count_ordered_tuples
from orthocount.graphs import build_affine_graph, build_projective_graph

G33 = build_affine_graph(3, 3)


# ---------------------------------------------------------------------------
# closed-form predictions
# ---------------------------------------------------------------------------


def test_predict_tuple_count_examples():
    assert predict_tuple_count(100, 3, 2) == pytest.approx(100**2 / 2 / 3)
    assert predict_tuple_count(57, 5, 1) == 57
    assert predict_tuple_count(0, 7, 4) == 0


def test_predict_tuple_count_validation():
    with pytest.raises(ValueError):
        predict_tuple_count(-1, 3, 2)
    with pytest.raises(ValueError):
        predict_tuple_count(10, 3, 0)


def test_predict_copy_count_examples():
    assert predict_copy_count(26, 26, 8, 2) == pytest.approx(26**2 / 2 * 8 / 26)
    assert predict_copy_count(26, 26, 8, 2) == pytest.approx(104)
    assert predict_copy_count(17, 26, 8, 1) == 17
    with pytest.raises(ValueError):
        predict_copy_count(10, 26, 0, 2)


def test_copy_prediction_approaches_tuple_prediction():
    # ratio = ((q^d - q)/(q^d - 1))^r: inside [0.5, 1] on the tested grid
    # and within 5k^2/q of 1 once q >= 5
    for q in (2, 3, 5, 7, 9):
        for d in (3, 4, 5):
            for k in (2, 3):
                if d < 2 * k - 1:
                    continue
                n, degree = q**d - 1, q ** (d - 1) - 1
                ratio = predict_copy_count(n, n, degree, k) / predict_tuple_count(n, q, k)
                assert 0.5 <= ratio <= 1.0, (q, d, k, ratio)
                if q >= 5:
                    assert abs(1 - ratio) <= 5 * k * k / q


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_threshold_examples():
    assert threshold_new(3, 4, 3) == 81.0
    assert threshold_old(3, 4, 3) == 81.0
    assert threshold_new(9, 4, 2) == 729.0
    assert threshold_old(3, 6, 3) == pytest.approx(3 ** (16 / 3))
    assert threshold_new(3, 6, 3) == 243.0
    assert threshold_new(5, 4, 1) == 25.0  # q^(d/2), no pair constraints


@settings(max_examples=100)
@given(q=st.integers(2, 1000), d=st.integers(2, 40))
def test_thresholds_coincide_at_k2(q, d):
    assert threshold_new(q, d, 2) == threshold_old(q, d, 2)


def test_compare_thresholds_reports_exact_exponents():
    cmp34 = compare_thresholds(3, 4, 3)
    assert cmp34.exponent_new == cmp34.exponent_old == 4
    assert cmp34.exponent_difference == 0
    assert cmp34.value_new == cmp34.value_old == 81.0

    cmp36 = compare_thresholds(3, 6, 3)
    assert cmp36.exponent_new == 5
    assert cmp36.exponent_old == Fraction(16, 3)
    assert cmp36.exponent_difference == Fraction(1, 3)
    assert cmp36.value_new == 243.0
    assert cmp36.value_old == pytest.approx(3 ** (16 / 3))
    assert cmp36.value_new < cmp36.value_old

    # the k=3, d=3 comparison goes the other way; report only, no claim
    cmp33 = compare_thresholds(3, 3, 3)
    assert cmp33.exponent_new == Fraction(7, 2)
    assert cmp33.exponent_old == Fraction(10, 3)
    assert cmp33.exponent_difference < 0


# ---------------------------------------------------------------------------
# validity margin
# ---------------------------------------------------------------------------


def test_validity_margin_example():
    margin = validity_margin(624, 5, 4, 2)
    # lambda = 4*5 = 20, n/degree = 624/124, so margin = 124/20 exactly
    assert margin == pytest.approx(6.2)


def test_validity_margin_monotone_in_m():
    margins = [validity_margin(m, 5, 4, 3) for m in range(10, 600, 25)]
    assert all(a < b for a, b in zip(margins, margins[1:]))


def test_validity_margin_tracks_new_threshold_for_cliques():
    # for K_k the margin denominator is threshold_new up to (1 - q^-1) factors
    for q, d, k in [(3, 4, 2), (5, 4, 3), (7, 3, 2)]:
        m = q ** (d - 1)
        margin = validity_margin(m, q, d, k)
        rough = m / threshold_new(q, d, k)
        assert 0.5 <= margin / rough <= 2.0


# ---------------------------------------------------------------------------
# seeding and sampling
# ---------------------------------------------------------------------------


def test_splitmix64_reference_vectors():
    # first two outputs of the canonical SplitMix64 stream seeded at 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4


def test_mix_seed_is_deterministic_and_spread():
    seeds = {mix_seed(42, di, ti) for di in range(4) for ti in range(8)}
    assert len(seeds) == 32
    assert mix_seed(42, 1, 2) == mix_seed(42, 1, 2)
    assert mix_seed(42, 1, 2) != mix_seed(43, 1, 2)
    assert all(0 <= s < 2**64 for s in seeds)


def test_sample_subset_reproducible():
    a = sample_subset(G33, 10, 987654321)
    b = sample_subset(G33, 10, 987654321)
    assert a.indices.tolist() == b.indices.tolist() and a.size == 10
    c = sample_subset(G33, 10, 987654322)
    assert c.indices.tolist() != a.indices.tolist()  # overwhelmingly likely, fixed seeds


def test_sample_subset_edges():
    assert sample_subset(G33, G33.n, 5).indices.tolist() == list(range(G33.n))
    assert sample_subset(G33, 0, 5).size == 0
    with pytest.raises(ValueError):
        sample_subset(G33, G33.n + 1, 5)


def _list_fisher_yates(n, m, seed):
    """The documented recipe, written out on a full list."""
    rng = np.random.Generator(np.random.PCG64(seed))
    arr = list(range(n))
    for i in range(m):
        j = int(rng.integers(i, n))
        arr[i], arr[j] = arr[j], arr[i]
    return sorted(arr[:m])


@pytest.mark.parametrize("graph", [G33, build_affine_graph(4, 3), build_projective_graph(5, 3)])
def test_sample_subset_matches_list_fisher_yates(graph):
    for m in (0, 1, graph.n // 2, graph.n):
        for seed in (0, 5, 987654321, mix_seed(42, 1, 2)):
            subset = sample_subset(graph, m, seed)
            assert subset.indices.tolist() == _list_fisher_yates(graph.n, m, seed)


# ---------------------------------------------------------------------------
# experiment configs
# ---------------------------------------------------------------------------


def test_config_from_file(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "# trend experiment\n"
        "q = 5\n"
        "d = 4\n"
        "k = 2\n"
        "densities = 0.25, 0.5, 312\n"
        "trials = 3\n"
        "seed = 42\n"
    )
    cfg = ExperimentConfig.from_file(cfg_path)
    assert (cfg.q, cfg.d, cfg.k, cfg.trials, cfg.master_seed) == (5, 4, 2, 3, 42)
    assert cfg.densities == (0.25, 0.5, 312)
    assert cfg.resolve_size(0.5, 624) == 312
    assert cfg.resolve_size(312, 624) == 312


def test_config_file_errors(tmp_path):
    base = "q = 3\nd = 3\nk = 2\ndensities = 0.5\ntrials = 2\nseed = 1\n"
    good = tmp_path / "good.cfg"
    good.write_text(base)
    ExperimentConfig.from_file(good)

    bad1 = tmp_path / "unknown.cfg"
    bad1.write_text(base + "bogus = 1\n")
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig.from_file(bad1)

    bad2 = tmp_path / "missing.cfg"
    bad2.write_text("q = 3\n")
    with pytest.raises(ValueError, match="missing"):
        ExperimentConfig.from_file(bad2)

    bad3 = tmp_path / "dup.cfg"
    bad3.write_text(base + "q = 5\n")
    with pytest.raises(ValueError, match="duplicate"):
        ExperimentConfig.from_file(bad3)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(q=3, d=3, k=2, densities=(), trials=1, master_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(q=3, d=3, k=2, densities=(0.5,), trials=0, master_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(q=3, d=3, k=2, densities=(1.5,), trials=1, master_seed=0)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        ExperimentConfig(q=3, d=3, k=0, densities=(0.5,), trials=1, master_seed=0)


def test_config_warns_outside_lemma_range():
    with pytest.warns(UserWarning, match="2k - 1") as record:
        ExperimentConfig(q=3, d=3, k=3, densities=(0.5,), trials=1, master_seed=0)
    assert record[0].filename == __file__  # the caller's line, not dataclass's __init__


def test_resolve_size_rejects_degenerate():
    cfg = ExperimentConfig(q=3, d=3, k=2, densities=(0.001,), trials=1, master_seed=0)
    with pytest.raises(ValueError):
        cfg.resolve_size(0.001, 26)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


def test_run_experiment_row_grid():
    cfg = ExperimentConfig(q=3, d=3, k=2, densities=(0.3, 0.6, 1.0), trials=5, master_seed=7)
    rows = run_experiment(cfg)
    assert len(rows) == 15
    assert [(r.m, r.trial) for r in rows] == [
        (m, t) for m in (7, 15, 26) for t in range(5)
    ]
    assert CSV_COLUMNS == (
        "q", "d", "k", "m", "trial", "observed", "predicted_main", "predicted_alon",
        "relative_error", "validity_margin", "threshold_new", "threshold_old", "seed_used",
    )


def test_full_density_rows_are_identical():
    cfg = ExperimentConfig(q=3, d=3, k=2, densities=(1.0,), trials=4, master_seed=99)
    rows = run_experiment(cfg)
    assert len({r.observed for r in rows}) == 1
    assert rows[0].observed == 200  # full G(3,3) ordered pairs


def test_rows_are_reproducible_and_consistent():
    cfg = ExperimentConfig(q=3, d=3, k=2, densities=(0.5,), trials=3, master_seed=13)
    rows_a = run_experiment(cfg)
    rows_b = run_experiment(cfg)
    assert rows_a == rows_b
    for r in rows_a:
        assert r.seed_used == mix_seed(13, 0, r.trial)
        subset = sample_subset(G33, r.m, r.seed_used)
        assert r.observed == count_ordered_tuples(subset, 2)
        scaled = math.factorial(2) * predict_tuple_count(r.m, 3, 2)
        assert r.predicted_main == scaled
        assert r.relative_error == abs(r.observed - scaled) / scaled
        assert r.threshold_new == threshold_new(3, 3, 2)
        assert r.validity_margin == validity_margin(r.m, 3, 3, 2)


def test_full_space_error_vanishes_along_q():
    # E = all nonzero vectors at d = 3: relative error of the ordered-pair
    # count against the (k!-scaled) prediction shrinks as q grows
    errors = []
    for q in (3, 5, 7):
        g = build_affine_graph(q, 3)
        observed = count_ordered_tuples(VertexSubset.full(g), 2)  # exact ordered pairs
        predicted = math.factorial(2) * predict_tuple_count(g.n, q, 2)
        errors.append(abs(observed - predicted) / predicted)
    assert errors[0] > errors[1] > errors[2]


def test_regression_baseline_5_4_2():
    # frozen reference run: q=5, d=4, k=2, m=312, master seed 42
    cfg = ExperimentConfig(q=5, d=4, k=2, densities=(0.5,), trials=1, master_seed=42)
    row = run_experiment(cfg)[0]
    assert row.m == 312
    assert row.seed_used == 5592132763777985307
    assert row.observed == 19216
    assert row.relative_error == pytest.approx(0.012984878369493717, rel=1e-12)
    # comfortably inside the pinned factor band (1 +/- 0.02)
    assert abs(row.observed - row.predicted_main) <= 0.02 * row.predicted_main
