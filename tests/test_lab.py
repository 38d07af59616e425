import hashlib
import json
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import lincirc as lc
from lincirc import ExperimentConfig, SplitMix64
from lincirc import lab as lab_mod
from conftest import ref_bias_character_sum


CFG16 = ExperimentConfig(n=16, master_seed=2025, trials=3, submatrix_budget=3000, rank_samples=8)


def test_config_derived_fields():
    cfg = ExperimentConfig(n=64, master_seed=1)
    assert cfg.inner_dim == 14 * 6
    assert cfg.freeness_k == 12
    assert cfg.to_dict()["inner_dim"] == 84


def test_trial_bit_exact_reproducibility():
    a = lc.run_trial(CFG16, 1)
    b = lc.run_trial(CFG16, 1)
    assert a == b
    assert a.to_dict() == b.to_dict()
    # different trials get different matrices
    assert lc.trial_matrices(CFG16, 0)[2] != lc.trial_matrices(CFG16, 1)[2]


def test_trial_fields_are_consistent():
    t = lc.run_trial(CFG16, 0)
    _, _, a = lc.trial_matrices(CFG16, 0)
    assert t.popcount == lc.popcount(a)
    assert t.density == pytest.approx(t.popcount / 16**2)
    assert t.composed_depth == 4
    assert t.sylvester_ok
    if t.kfree.quantity is not None:
        assert t.ratio_proxy == pytest.approx(t.kfree.quantity / t.composed_gates)


def test_composed_circuits_verify_inside_trials():
    # product_circuit verifies internally; a broken composition would raise
    cfg = ExperimentConfig(n=32, master_seed=7, trials=2, submatrix_budget=2000, rank_samples=5)
    rep = lc.run_experiment(cfg)
    assert all(t.composed_gates > 0 for t in rep.trials)
    assert rep.min_density > 0.3


def test_trial_reports_match_pinned_digest():
    # pins every trial report byte for byte across kfree paths (exact at
    # n = 16, evidence at n = 32, 64); a change to any number moves it
    reports = []
    for n, seed in ((16, 2025), (32, 7), (64, 20131305)):
        cfg = ExperimentConfig(n=n, master_seed=seed, trials=3)
        reports += [lc.run_trial(cfg, t).to_dict() for t in range(cfg.trials)]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "2c2ec1ece241e563167e20e7e65619f0082a1d42c5f7bb3fc6fc32bec57dbaa1"


def test_report_json_matches_pinned_digest():
    # pins the key order of every report type's JSON (no sort_keys):
    # nested trials and statuses, witnesses, an exact bias, a sweep
    evidence_cfg = ExperimentConfig(n=32, master_seed=5, c=1, trials=2, submatrix_budget=2000, rank_samples=4)
    separation = lc.run_experiment(evidence_cfg)
    cfg16 = ExperimentConfig(n=16, master_seed=2025, trials=1, submatrix_budget=3000, rank_samples=8)
    not_free = lc.KFreeStatus(10, "exact-not-free", None, witness=lc.Submatrix((1, 2), (3, 5)))
    mask = [[1, 0], [0, None]]
    reports = [
        cfg16,
        lc.submatrix_rank_stats(lc.gen_random(12, 12, 5), 4, 6, 9),
        lc.ramsey_check(lc.gen_sierpinski(8), 3, 200, 1),
        lc.ramsey_check(lc.gen_random(16, 16, 2), 5, 300, 4),
        lc.run_trial(cfg16, 0),
        replace(
            separation.trials[1],
            allones_witness=lc.Submatrix((0, 4), (1, 2)),
            kfree=not_free,
            ratio_proxy=None,
        ),
        separation,
        lc.bias_report(mask),
        lc.ratio_sweep(
            [8, 16], ExperimentConfig(n=8, master_seed=1, trials=1, submatrix_budget=200, rank_samples=3)
        ),
        lc.kfree_quantity(lc.gen_sierpinski(8), 3),
        lc.kfree_quantity(lc.gen_random(40, 40, 3), 3, evidence_budget=300, seed=2),
        lc.kfree_quantity(lc.gen_random(64, 64, 3), 12, evidence_budget=300, seed=2),
        lc.bound_report(lc.gen_sierpinski(8), kfree_ks=(1, 3), kst_a=3),
        lc.bound_report(lc.gen_random(5, 7, 11), kfree_ks=(2,)),
    ]
    assert {type(r).__name__ for r in reports} == {
        "ExperimentConfig", "RankStats", "RamseyOutcome", "TrialReport", "SeparationReport",
        "BiasReport", "SweepReport", "KFreeStatus", "BoundReport",
    }
    text = json.dumps([r.to_dict() for r in reports])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "e368707359270aac7b7855ffb39d9bb5c4a65279eccd491359cd502ae7760d4e"


def test_trial_computes_each_quantity_once(monkeypatch):
    # the Sylvester check reads B_sub C_sub off A, each synthesis result
    # is flattened once for both verification and its CF flag, and one
    # all-ones search per question: A's (inside kfree_quantity) and its
    # complement's; at n = 256 exact k-freeness is out of reach, so
    # kfree_quantity never runs the exhaustive search; 50 ranks for each
    # factor's statistics make 100, and at c = 14 the Sylvester check
    # cannot bind (2 * krank <= inner), so it adds none
    counted = (
        lc.mul_gf2, lc.flatten, lc.verify, lc.is_cancellation_free, lc.find_allones_submatrix,
        lc.matrices._first_allones, lc.rank_gf2, lc.gen_random,
    )
    calls = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {fn: counting(fn) for fn in counted}
    for name, mod in list(sys.modules.items()):
        if name == "lincirc" or name.startswith("lincirc."):
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[val])
    lc.run_trial(ExperimentConfig(n=256, master_seed=1), 0)
    assert calls == {
        "mul_gf2": 3, "flatten": 3, "verify": 6, "is_cancellation_free": 6,
        "find_allones_submatrix": 2, "rank_gf2": 100, "gen_random": 2,
    }
    assert calls["_first_allones"] == 0


def _trial_rank_calls(monkeypatch, cfg, rank):
    """The trial-0 report of ``cfg`` with ``rank`` standing in for
    ``rank_gf2``, and the number of rank calls it made."""
    calls = []

    def counting(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(lab_mod, "rank_gf2", counting)
    return lc.run_trial(cfg, 0), len(calls)


def test_sylvester_check_runs_and_can_fire_where_it_can_bind(monkeypatch):
    # n = 16, c = 1: inner 4 and krank 4, so 2 * krank > inner and the
    # check runs: 2 ranks per sample for the factors' statistics and 3
    # per Sylvester sample
    cfg = ExperimentConfig(n=16, master_seed=5, c=1, trials=1, rank_samples=6)
    assert (cfg.inner_dim, 2 * min(5 * 4, cfg.inner_dim, cfg.n)) == (4, 8)
    report, calls = _trial_rank_calls(monkeypatch, cfg, lc.rank_gf2)
    assert calls == 5 * cfg.rank_samples and report.sylvester_ok
    # a rank of 0 for every submatrix of A (the only ones n columns wide
    # besides C's statistics) contradicts the inequality
    report, _ = _trial_rank_calls(
        monkeypatch, cfg, lambda m: 0 if m.cols == cfg.n else lc.rank_gf2(m)
    )
    assert not report.sylvester_ok
    # c = 14: inner 56 and krank 16, so no rank can fall below
    # rank_b + rank_c - inner <= 0 and only the statistics' ranks remain
    wide = replace(cfg, c=14)
    report, calls = _trial_rank_calls(monkeypatch, wide, lambda m: 0)
    assert calls == 2 * wide.rank_samples and report.sylvester_ok


def test_trial_allones_witness_is_the_kfree_witness():
    # c = 1 leaves A of rank log2 n, which holds large all-ones blocks
    cfg = ExperimentConfig(n=128, master_seed=3, c=1, trials=1, rank_samples=2)
    t = lc.run_trial(cfg, 0)
    assert t.kfree.kind == "exact-not-free"
    assert t.allones_witness is not None and t.allones_witness == t.kfree.witness


@pytest.mark.parametrize(
    "field, value",
    [("n", 1), ("c", 0), ("trials", 0), ("rank_samples", 0), ("submatrix_budget", -5),
     ("master_seed", -1), ("master_seed", 2**64)],
)
def test_config_refuses_out_of_range_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ExperimentConfig(**{"n": 16, "master_seed": 1, field: value})
    with pytest.raises(ValueError, match=f"^{field} must be"):
        replace(CFG16, **{field: value})


def test_ratio_sweep_checks_every_size_before_any_trial(monkeypatch):
    monkeypatch.setattr(lab_mod, "trial_matrices", lambda *a: pytest.fail("ran a trial"))
    with pytest.raises(ValueError, match="n must be"):
        lc.ratio_sweep([8, 1], CFG16)
    with pytest.raises(ValueError, match="cap is 16777216 cells"):
        lc.ratio_sweep([64, 4097], CFG16)


def test_config_refuses_matrices_over_the_cell_cap():
    # A is n x n and B is n x inner_dim; neither is formed here
    assert ExperimentConfig(n=4096, master_seed=1).inner_dim == 168  # at the cap
    for fields in ({"n": 4097}, {"n": 64, "c": 10**6}):
        with pytest.raises(ValueError, match="cap is 16777216 cells"):
            ExperimentConfig(master_seed=1, **fields)


def _sequential_indices(rng: SplitMix64, population: int, k: int) -> list[int]:
    """k indices by a partial Fisher-Yates shuffle, one randrange each."""
    idx = list(range(population))
    for i in range(k):
        j = i + rng.randrange(population - i)
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def _sequential_pairs(seed, row_pop, col_pop, k, samples):
    rng = SplitMix64(seed)
    return [
        (_sequential_indices(rng, row_pop, k), _sequential_indices(rng, col_pop, k))
        for _ in range(samples)
    ]


@pytest.mark.parametrize(
    "row_pop, col_pop, k", [(256, 112, 40), (112, 256, 40), (112, 112, 112), (40, 256, 40), (1, 1, 1)]
)
def test_sample_pairs_match_sequential_draws(row_pop, col_pop, k):
    for seed in (0, 20131305):
        got = list(lab_mod._sample_pairs(seed, row_pop, col_pop, k, 7))
        assert got == _sequential_pairs(seed, row_pop, col_pop, k, 7)


def test_rank_stats_chunking_is_invisible():
    # a sampled submatrix of the identity has rank |rows & cols|, so the
    # ranks spread over 0..k and a misdrawn sample moves the mean
    b = lc.identity(24)
    k, seed = 6, 11
    samples = lab_mod._SAMPLE_CHUNK + 1
    pairs = _sequential_pairs(seed, b.rows, b.cols, k, samples)
    assert list(lab_mod._sample_pairs(seed, b.rows, b.cols, k, samples)) == pairs
    ranks = [len(set(rows) & set(cols)) for rows, cols in pairs]
    expected = lc.RankStats(k, False, samples, min(ranks), sum(ranks) / samples)
    assert lc.submatrix_rank_stats(b, k, samples, seed) == expected


def test_submatrix_rank_stats():
    z = lc.zeros(10, 10)
    st = lc.submatrix_rank_stats(z, 4, 20, seed=3)
    assert st.min_rank == 0 and st.mean_rank == 0.0
    ident = lc.identity(12)
    st = lc.submatrix_rank_stats(ident, 5, 20, seed=3)
    assert 0 <= st.min_rank <= 5
    with pytest.raises(ValueError):
        lc.submatrix_rank_stats(ident, 13, 5, seed=0)
    with pytest.raises(ValueError, match="samples"):
        lc.submatrix_rank_stats(ident, 4, 0, seed=0)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            lc.submatrix_rank_stats(ident, k, 5, seed=0)


def test_rank_stats_deterministic():
    m = lc.gen_random(20, 20, 9)
    assert lc.submatrix_rank_stats(m, 6, 30, 4) == lc.submatrix_rank_stats(m, 6, 30, 4)


def test_rank_stats_random_factor_stays_near_full_rank():
    # sampled square submatrices of a random factor keep rank above the
    # 0.51k threshold (evidence-level, seed recorded)
    cfg = ExperimentConfig(n=256, master_seed=31, trials=1)
    b, _, _ = lc.trial_matrices(cfg, 0)
    k = min(5 * 8, cfg.inner_dim)
    st = lc.submatrix_rank_stats(b, k, 200, seed=17)
    assert st.min_rank >= 0.51 * k


def test_ramsey_check():
    j = lc.ones(8, 8)
    out = lc.ramsey_check(j, 2, budget=2000, seed=1)
    assert out.status == "refuted" and out.refuted_side == "ones"
    ident = lc.identity(4)
    out = lc.ramsey_check(ident, 2, budget=5000, seed=1)
    assert out.status == "refuted" and out.refuted_side == "zeros"
    _, _, a = lc.trial_matrices(ExperimentConfig(n=64, master_seed=3, trials=1), 0)
    out = lc.ramsey_check(a, 12, budget=3000, seed=2)
    assert out.status == "evidence-ramsey"
    for t in (1, 0, -1):
        with pytest.raises(ValueError, match="t must be"):
            lc.ramsey_check(j, t, budget=2000, seed=1)


# ---------------------------------------------------------------------------
# conditional bias


def _brute_bias(mask, w):
    """The bias by enumerating every (B, C), B m x w and C w x m: the m
    rows of B then the m columns of C are the w-bit fields of one int."""
    m = len(mask)
    num = den = 0
    for code in range(1 << (2 * m * w)):
        fields = [(code >> (w * k)) & ((1 << w) - 1) for k in range(2 * m)]
        e = [[(fields[i] & fields[m + j]).bit_count() & 1 for j in range(m)] for i in range(m)]
        if all(v is None or e[i][j] == v for i, row in enumerate(mask) for j, v in enumerate(row)):
            den += 1
            num += sum(e[i][j] for i, row in enumerate(mask) for j, v in enumerate(row) if v is None)
    if den == 0:
        raise ValueError("mask has zero acceptance probability")
    return Fraction(num, den)


def _class_bias(mask, inner):
    """The bias at m = 2 by dependence classes, cheap at any inner width.

    For fixed rows (b1, b2) of B, the two product entries fed by one
    column of C are both zero, one free uniform bit and a zero, two equal
    bits, or two independent bits, depending only on whether b1, b2 are
    zero or coincide.  Columns of C are independent, so the law of the
    four entries is a mixture over the five (b1, b2) classes."""
    size = 1 << inner
    weights = {  # over the size^2 pairs (b1, b2)
        "zz": 1, "z1": size - 1, "1z": size - 1, "eq": size - 1, "free": (size - 1) * (size - 2),
    }

    def column_law(cls, e1, e2):
        # P[(b1.c, b2.c) = (e1, e2)] for one uniform column c
        return {
            "zz": Fraction(int(e1 == e2 == 0)),
            "z1": Fraction(int(e1 == 0), 2),
            "1z": Fraction(int(e2 == 0), 2),
            "eq": Fraction(int(e1 == e2), 2),
            "free": Fraction(1, 4),
        }[cls]

    (p, q), = [(i, j) for i in range(2) for j in range(2) if mask[i][j] is None]
    law = []
    for value in (0, 1):
        e = [row[:] for row in mask]
        e[p][q] = value
        law.append(sum(
            wt * column_law(cls, e[0][0], e[1][0]) * column_law(cls, e[0][1], e[1][1])
            for cls, wt in weights.items()
        ))
    if law[0] + law[1] == 0:
        raise ValueError("mask has zero acceptance probability")
    return law[1] / (law[0] + law[1])


def _open_cell_masks(m, count, seed):
    """``count`` random m x m masks with one open cell."""
    rng = SplitMix64(seed)
    masks = []
    for _ in range(count):
        mask = [[rng.bits(1) for _ in range(m)] for _ in range(m)]
        mask[rng.randrange(m)][rng.randrange(m)] = None
        masks.append(mask)
    return masks


def _bias_or_refusal(bias, mask, inner):
    try:
        return bias(mask, inner)
    except ValueError as e:
        assert str(e) == "mask has zero acceptance probability"
        return None


@pytest.mark.parametrize(
    "mask",
    [
        [[0, 0], [0, None]],
        [[1, 0], [None, 1]],
        [[None, 1], [1, 1]],
        [[0, 1], [1, None]],
    ],
)
def test_exact_bias_oracle_matches_enumeration(mask):
    for w in (2, 3):
        assert lc.exact_conditional_bias(mask, inner=w) == _brute_bias(mask, w)


def test_exact_bias_matches_class_counting_on_every_2x2_mask():
    # all 4 open cells x 8 fillings, up to the lemma's width 14, where
    # enumeration cannot go; at width 1 some masks accept nothing
    masks = []
    for cell in range(4):
        for fill in range(8):
            bits = iter((fill >> k) & 1 for k in range(3))
            masks.append([[None if 2 * i + j == cell else next(bits) for j in range(2)] for i in range(2)])
    refused = 0
    for mask in masks:
        for inner in (1, 2, 3, 14):
            want = _bias_or_refusal(_class_bias, mask, inner)
            assert _bias_or_refusal(lc.exact_conditional_bias, mask, inner) == want, (mask, inner)
            refused += want is None
    assert refused == 4


def test_exact_bias_matches_enumeration_at_3x3():
    for mask in _open_cell_masks(3, 6, 31):
        for inner in (1, 2):
            want = _bias_or_refusal(_brute_bias, mask, inner)
            assert _bias_or_refusal(lc.exact_conditional_bias, mask, inner) == want, (mask, inner)


def test_exact_bias_is_one_half_when_both_completions_have_one_rank():
    # Pr[BC = X] depends on rank X alone, so equal ranks give exactly 1/2
    for mask in ([[0, 0], [1, None]], [[0, 1, 0], [1, 0, None], [0, 0, 1]]):
        for inner in (len(mask), None):
            assert lc.exact_conditional_bias(mask, inner) == Fraction(1, 2)


def test_exact_bias_value_at_full_width():
    # frozen exact value for the all-zeros mask at the lemma's width
    got = lc.exact_conditional_bias([[0, 0], [0, None]])
    assert got == Fraction(134225919, 268517378)


def test_exact_bias_matches_the_character_sum():
    # every open cell of three fillings at m = 2 and m = 3, and two masks
    # at m = 4; a mask whose completions both have rank above inner
    # accepts nothing (14 of the refusals are the identity opened off its
    # diagonal)
    masks = []
    for m, seed in ((2, 41), (3, 42)):
        identity = [[int(i == j) for j in range(m)] for i in range(m)]
        for fill in [identity] + _open_cell_masks(m, 2, seed):
            for p in range(m):
                for q in range(m):
                    # a random filling's own open cell reads as 0
                    masks.append([[None if (i, j) == (p, q) else fill[i][j] or 0
                                   for j in range(m)] for i in range(m)])
    masks += _open_cell_masks(4, 2, 43)
    refused = 0
    for mask in masks:
        for inner in (1, 2, 7 * len(mask)):
            want = _bias_or_refusal(ref_bias_character_sum, mask, inner)
            assert _bias_or_refusal(lc.exact_conditional_bias, mask, inner) == want, (mask, inner)
            refused += want is None
    assert refused == 38


def test_bias_report_is_the_exact_value_at_full_width():
    rep = lc.bias_report([[0, 0], [0, None]])
    assert rep == lc.BiasReport(2, 14, (1, 1), "134225919/268517378", 134225919 / 268517378)
    # at inner = 7m >= m every rank is reachable, so no mask is refused
    for mask in ([[1, None], [0, 1]], [[1, 0, 0], [0, 1, None], [0, 0, 1]]):
        assert Fraction(lc.bias_report(mask).bias) == lc.exact_conditional_bias(mask)


def test_bias_rejects_bad_masks():
    over_cap = [None] * (lab_mod.MAX_MASK_SIDE + 1)  # refused before any row is read
    for mask, message in (
        ([[0, 0], [0, 0]], "exactly one entry undefined"),
        ([[None, None], [0, 0]], "exactly one entry undefined"),
        (over_cap, f"mask has 33 rows; the cap is {lab_mod.MAX_MASK_SIDE}x"),
    ):
        for bias in (lc.exact_conditional_bias, lc.bias_report):
            with pytest.raises(ValueError, match=message):
                bias(mask)


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: lc.exact_conditional_bias([[0, 0], [None]]),
                     "mask must be square", id="non-square"),
        pytest.param(lambda: lc.exact_conditional_bias([[0, 2], [0, None]]),
                     "mask entry 2 is not 0, 1 or None", id="bad-entry"),
        pytest.param(lambda: lc.exact_conditional_bias([[0, 0], [0, None]], inner=-1),
                     "inner must be >= 0, got -1", id="exact-negative-inner"),
    ],
)
def test_bias_refuses_malformed_masks(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# ---------------------------------------------------------------------------
# sweep


def test_ratio_sweep_small():
    rep = lc.ratio_sweep([16, 32], CFG16)
    assert len(rep.points) == 2
    assert rep.ratio_proxy_nondecreasing is True
    assert rep.heuristic_ratio_nondecreasing is True
    # at these sizes the composed circuit still costs far more than paar's
    # on the product (measured 0.107 at n = 16 and 0.173 at n = 32)
    assert all(p.median_heuristic_ratio < 1.0 for p in rep.points)


def test_ratio_sweep_builds_each_trials_matrices_once(monkeypatch):
    built = Counter()
    trial_matrices = lab_mod.trial_matrices

    def counting(config, t):
        built[config.n, t] += 1
        return trial_matrices(config, t)

    monkeypatch.setattr(lab_mod, "trial_matrices", counting)
    lc.ratio_sweep([16, 32], CFG16)
    assert built == {(n, t): 1 for n in (16, 32) for t in range(CFG16.trials)}


def test_ratio_sweep_single_point_has_no_trend():
    rep = lc.ratio_sweep([16], CFG16)
    assert rep.ratio_proxy_nondecreasing is None
    assert rep.heuristic_ratio_nondecreasing is None
