"""Numbered end-to-end checks covering every headline guarantee.

Each test prints a single ``CRITERION n: PASS|FAIL`` line before its
assertions, so a captured pytest run doubles as a scorecard.  Tolerances are
part of the contract; they are stated inline and must not be loosened to make
a run green — a red line here means the claim, as stated, does not hold.
"""

import hashlib
import math
import os
import random
from fractions import Fraction

import pytest

from colombeau.catalog import catalog_oracle
from colombeau.config import load_config
from colombeau.expr import (
    EvaluationError,
    SizeCapError,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_text,
)
from colombeau.mollify import (
    build_mollifier,
    class_A_membership,
    convergence_experiment,
    mollify,
    regular_bound_experiment,
)
from colombeau.regularity import (
    classify_ginfty,
    classify_gla,
    classify_sublinear,
    growth_char_check,
    landau_check,
    null_propagation_check,
)
from colombeau.runner import run_config
from colombeau.scale import (
    PowerScale,
    estimate_valuation,
    sample,
    scale_add,
    scale_mul,
    valuation_exact,
)

from raw_trees import central_diff, random_expr

C1_ORACLE = 2.2522836210435675  # normalisation constant, d=1, Q=128


def _verdict(n: int, ok: bool) -> bool:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}")
    return ok


def _random_power_scale(rng: random.Random) -> PowerScale:
    terms = []
    for _ in range(rng.randint(1, 4)):
        coef = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
        terms.append((coef, Fraction(rng.randint(-24, 24), 2)))
    return PowerScale.of_terms(terms)


# ---------------------------------------------------------------------------
# 1-2: the scale of power nets
# ---------------------------------------------------------------------------


def test_criterion_01_valuation_fit_matches_exact_valuation(grid):
    rng = random.Random(41)
    worst = 0.0
    checked = 0
    while checked < 50:
        z = _random_power_scale(rng)
        if z.is_zero:
            continue
        est = estimate_valuation(sample(z, grid))
        worst = max(worst, abs(est.value - float(valuation_exact(z))))
        checked += 1
    assert _verdict(1, worst <= 0.05), worst


def test_criterion_02_ultrametric_laws_exact():
    # Compared through the valuation (exact fraction arithmetic), which the
    # sharp norm inverts monotonically: v(a+b) >= min(v) is the ultrametric
    # triangle inequality and v(ab) = v(a)+v(b) the norm multiplicativity.
    rng = random.Random(42)
    failures = 0
    for _ in range(100):
        a, b = _random_power_scale(rng), _random_power_scale(rng)
        va, vb = valuation_exact(a), valuation_exact(b)
        if valuation_exact(scale_add(a, b)) < min(va, vb):
            failures += 1
        if valuation_exact(scale_mul(a, b)) != va + vb:
            failures += 1
    assert _verdict(2, failures == 0), failures


# ---------------------------------------------------------------------------
# 3-8: seminorm estimates and the regularity verdicts
# ---------------------------------------------------------------------------


def test_criterion_03_seminorm_fits_match_catalog_oracles(catalog_sequences):
    worst = 0.0
    for name, seqs in catalog_sequences.items():
        for seq in seqs:
            for k in range(seq.k_max + 1):
                v_oracle = catalog_oracle(name, k)
                v_hat = -seq.ln(k)
                if v_oracle == math.inf:
                    if v_hat != math.inf:
                        worst = math.inf
                    continue
                worst = max(worst, abs(v_hat - float(v_oracle)))
    assert _verdict(3, worst <= 0.1), worst


def test_criterion_04_landau_inequality_on_rising_sequences(catalog_sequences):
    ok = True
    for name in ("osc", "delta", "multiscale"):
        for seq in catalog_sequences[name]:
            rep = landau_check(seq)  # ln-slack 0.2
            ok = ok and rep.all_ok
    assert _verdict(4, ok)


def test_criterion_05_null_propagation_for_the_constant_net(catalog_sequences):
    ok = True
    for seq in catalog_sequences["one"]:
        ok = ok and math.exp(seq.ln(0)) == pytest.approx(1.0, abs=1e-9)
        ok = ok and all(seq.ln(k) == -math.inf for k in range(1, seq.k_max + 1))
        ok = ok and null_propagation_check(seq).ok
    assert _verdict(5, ok)


def test_criterion_06_bound_and_decreasing_tests_agree(catalog_sequences):
    ok = True
    for seqs in catalog_sequences.values():
        for seq in seqs:
            ok = ok and classify_ginfty(seq).agree
    assert _verdict(6, ok)


def test_criterion_07_growth_bound_and_ratio_tests_agree(catalog_sequences):
    ok = True
    for seqs in catalog_sequences.values():
        for seq in seqs:
            for base in (1.0, math.e, math.e**2):
                ok = ok and growth_char_check(seq, base).agree
    assert _verdict(7, ok)


def test_criterion_08_classification_truth_table(
    catalog_sequences, catalog_nets, compacts, grid
):
    rows = []
    for seq in catalog_sequences["osc"]:
        rows.append(classify_ginfty(seq).verdict == "no")
        rows.append(classify_gla(seq, 1.5).verdict == "yes-evidence")
        rows.append(classify_gla(seq, 0.5).verdict == "no")
    for seq in catalog_sequences["const_ginfty"]:
        rows.append(classify_ginfty(seq).verdict == "yes-evidence")
    for seq in catalog_sequences["delta"]:
        rows.append(classify_gla(seq, 1.5).verdict == "yes-evidence")
        rows.append(classify_gla(seq, 0.8).verdict == "no")
    for seq in catalog_sequences["multiscale"]:
        for a in (1.0, 2.0, 4.0):
            rows.append(classify_gla(seq, a).verdict == "no")
    sub = classify_sublinear(catalog_nets["multiscale"], compacts, grid, k_max=6)
    rows.append(sub.verdict == "not-sublinear-evidence")
    assert _verdict(8, all(rows)), rows


# ---------------------------------------------------------------------------
# 9-11: mollification
# ---------------------------------------------------------------------------


def test_criterion_09_mollification_convergence_rate(catalog_nets, compacts):
    net = catalog_nets["compact_osc"]
    ok = True
    for K in compacts:
        for k in (0, 1):
            rec = convergence_experiment(net, K, k, (1, 2, 3, 4))
            ok = ok and rec.all_ok and rec.slope >= 0.9
    assert _verdict(9, ok)


def test_criterion_10_dense_class_bound(catalog_nets, compacts):
    net = catalog_nets["compact_osc"]
    ok = True
    for K in compacts:
        for k in range(4):
            for n in (1, 2, 3):
                ok = ok and regular_bound_experiment(net, K, k, n).all_ok
    for n in (1, 2, 3):
        rep = class_A_membership(mollify(net, n), n + 1, compacts, k_max=3)
        ok = ok and rep.verdict == "yes"
    assert _verdict(10, ok)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_11_density_pipeline_slope(n, catalog_nets, compacts, grid):
    # d^k(u*psi_delta) = (d^k u)*psi_delta with delta = eps^n <= eps.  For
    # u_eps = cutoff(x) sin(x/eps) the leading term is, up to a phase,
    # eps^(-k) Im(e^(ix/eps) psihat(eps^(n-1))), and for n >= 1 and the 1-D
    # bump psihat(eps^(n-1)) lies in [cos 1, 1].  Smoothing therefore keeps
    # the base net's valuations v(p_k) = -k, and the tail slope
    # (ln P_k - ln P_0)/k = (v_0 - v_k)/k stays at the base net's rate for
    # every n.  That rate is <= n, as the dense-class bound (criterion 10)
    # allows; it need not equal n.  A slope pushed toward n, or flattened
    # toward 0 by smoothing the oscillation away, fails the check.
    k_max = 4
    v = [catalog_oracle("compact_osc", k) for k in range(k_max + 1)]
    # the window classify_sublinear reads s_full over: k = ceil(k_max/2)..k_max
    window = range(max(1, math.ceil(k_max / 2)), k_max + 1)
    rate = float(max((v[0] - v[k]) / k for k in window))
    rep = classify_sublinear(mollify(catalog_nets["compact_osc"], n), compacts, grid, k_max=k_max)
    slopes = [row.s_full for row in rep.per_compact]
    ok = rep.verdict == "sublinear-evidence" and all(abs(s - rate) <= 0.3 for s in slopes)
    assert _verdict(11, ok), f"n={n} oracle rate={rate} verdict={rep.verdict} slopes={slopes}"


# ---------------------------------------------------------------------------
# 12-14: mollifier construction, the expression layer, determinism
# ---------------------------------------------------------------------------


def test_criterion_12_mollifier_normalisation():
    reintegrated = [build_mollifier(d).integral() for d in (1, 2)]
    c1 = build_mollifier(1, 128).c
    ok = all(abs(v - 1.0) <= 1e-8 for v in reintegrated)
    ok = ok and abs(c1 - C1_ORACLE) <= 1e-8
    assert _verdict(12, ok), (reintegrated, c1)


def test_criterion_13_parser_round_trip_and_derivatives(catalog_nets):
    ok = True
    # round-trip stability of every expression the catalog prints
    texts = []
    for net in catalog_nets.values():
        desc = net.describe()
        texts.extend([desc["expression"]] if "expression" in desc else desc["terms"])
    for t in texts:
        e = parse(t)
        ok = ok and to_text(e) == t and parse(to_text(e)) == e
    # 200 random symbolic derivatives against a five-point stencil
    rng = random.Random(4242)
    checked = 0
    while checked < 200:
        e = simplify(random_expr(rng, rng.randint(1, 4)))
        x = rng.uniform(-1.5, 1.5)
        eps = rng.choice([0.35, 0.5, 0.65])
        try:
            sym = evaluate(differentiate(e, 0), (x,), eps)
            est = central_diff(e, x, eps, 1e-4 * max(1.0, abs(x)))
        except (EvaluationError, SizeCapError):
            continue
        if not (math.isfinite(sym) and math.isfinite(est)):
            continue
        rel = abs(sym - est) / (abs(sym) + abs(est) + 1.0)
        ok = ok and rel <= 1e-5
        checked += 1
    assert _verdict(13, ok)


def test_criterion_14_runs_are_byte_identical(tmp_path, monkeypatch):
    doc = {
        "dimension": 1,
        "net": {"catalog": "osc"},
        "compacts": [[[[0.0, 1.0]]], [[[-1.0, 2.0]]]],
        "eps_grid": {"eps0": 0.5, "ratio": 0.5, "count": 10},
        "k_max": 3,
        "experiments": [
            {"kind": "seminorms", "k_list": [0, 1, 2]},
            {"kind": "landau"},
            {"kind": "valuation", "k": 1},
        ],
    }
    digests = []
    for threads in ("1", "1", "8", "8"):
        monkeypatch.setenv("COLOMBEAU_THREADS", threads)
        sub = tmp_path / f"t{threads}-{len(digests)}"
        cfg = load_config({**doc, "output_prefix": str(sub / "run")})
        result = run_config(cfg)
        acc = hashlib.sha256()
        for f in sorted(result.files):
            acc.update(os.path.basename(f).encode())
            acc.update(open(f, "rb").read())
        digests.append(acc.hexdigest())
    assert _verdict(14, len(set(digests)) == 1), digests
