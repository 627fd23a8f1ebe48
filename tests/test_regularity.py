import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colombeau.catalog import CATALOG
from colombeau.expr import EpsPow, Mul, parse
from colombeau.mollify import class_A_membership
from colombeau.nets import CompactBox, ExpressionNet, SeminormTable, SharpSeminorm
from colombeau.regularity import (
    PSequence,
    RegularityError,
    build_report,
    classify_gla,
    classify_ginfty,
    classify_sublinear,
    growth_char_check,
    landau_check,
    null_propagation_check,
    psequence,
)
from colombeau.scale import EpsGrid, ValuationEstimate

K01 = CompactBox.interval(0.0, 1.0)


def fake_seq(ln_values, stable=None):
    """PSequence with prescribed ln P_k values and stability flags."""
    entries = []
    for k, ln in enumerate(ln_values):
        flag = True if stable is None else stable[k]
        if ln == -math.inf:
            est = ValuationEstimate(math.inf, "negligible-floor", 0.0, (0, 8), flag)
        else:
            est = ValuationEstimate(-ln, "fitted", 0.0, (0, 8), flag)
        entries.append(SharpSeminorm(SeminormTable(k, K01, ()), est))
    return PSequence(tuple(entries))


# ---------------------------------------------------------------------------
# P-sequences
# ---------------------------------------------------------------------------


def test_psequence_validation():
    with pytest.raises(RegularityError):
        PSequence(())
    good = fake_seq([0.0, 1.0])
    with pytest.raises(RegularityError):
        PSequence((good.entries[1],))  # starts at k=1
    with pytest.raises(RegularityError):
        psequence(None, K01, None, k_max=9)
    for k_max in (True, 2.0):  # True would run as 1, 2.0 fail in range
        with pytest.raises(RegularityError):
            psequence(None, K01, None, k_max=k_max)


def test_fake_seq_roundtrip():
    seq = fake_seq([0.0, -1.5, -math.inf])
    assert seq.k_max == 2
    assert seq.ln_values() == [0.0, -1.5, -math.inf]
    assert seq.entries[2].value == 0.0


# ---------------------------------------------------------------------------
# log-convexity
# ---------------------------------------------------------------------------


def test_landau_needs_a_step_to_check():
    for ln in ([0.0], [0.0, 1.0]):
        with pytest.raises(RegularityError):
            landau_check(fake_seq(ln))


def test_landau_satisfied_on_linear_growth():
    rep = landau_check(fake_seq([0.0, 1.0, 2.0, 3.0, 4.0]))
    assert rep.all_ok
    assert all(e.verdict == "satisfied" for e in rep.entries)
    assert all(abs(e.margin) < 1e-12 for e in rep.entries)


def test_landau_violated_on_concave_rise():
    rep = landau_check(fake_seq([0.0, 2.0, 3.0]))
    assert not rep.all_ok
    assert rep.entries[0].verdict == "violated"
    assert rep.entries[0].margin == pytest.approx(-1.0)


def test_landau_flat_steps_not_triggered():
    rep = landau_check(fake_seq([0.0, 0.05, 0.1, 0.12]))
    assert rep.all_ok
    assert all(e.verdict == "not-triggered" for e in rep.entries)


def test_landau_negligible_conventions():
    # P_0 = 0 with P_1 > 0 is a genuine convexity break: margin -inf
    rep = landau_check(fake_seq([-math.inf, 1.0, 2.0]))
    assert rep.entries[0].verdict == "violated"
    assert rep.entries[0].margin == -math.inf
    # P_k = 0 in the middle carries no rising step
    rep = landau_check(fake_seq([0.0, -math.inf, 1.0]))
    assert rep.entries[0].verdict == "not-triggered"


def test_landau_skips_unstable_neighbours():
    rep = landau_check(
        fake_seq([0.0, 1.0, 2.0, 3.0], stable=[True, True, False, True])
    )
    assert [e.verdict for e in rep.entries] == ["skipped", "skipped"]
    assert rep.all_ok  # skipped entries are not violations


def test_landau_on_catalog_nets(catalog_sequences):
    for name in ("osc", "delta", "multiscale", "compact_osc"):
        for seq in catalog_sequences[name]:
            rep = landau_check(seq)
            assert rep.all_ok, (name, rep)


# ---------------------------------------------------------------------------
# null propagation
# ---------------------------------------------------------------------------


def test_null_propagation_clean_tail():
    rep = null_propagation_check(fake_seq([0.0, -1.0, -math.inf, -math.inf]))
    assert rep.ok and rep.first_zero == 2 and rep.first_violation is None


def test_null_propagation_no_zero():
    rep = null_propagation_check(fake_seq([0.0, 1.0]))
    assert rep.ok and rep.first_zero is None


def test_null_propagation_violation():
    rep = null_propagation_check(fake_seq([0.0, -math.inf, 2.0]))
    assert not rep.ok
    assert rep.first_zero == 1 and rep.first_violation == 2


def test_null_propagation_reads_ln_values_beyond_the_float_range():
    # exp(800) overflows and exp(-800) rounds to 0: neither is P = 0
    rep = null_propagation_check(fake_seq([-800.0, -900.0, -math.inf]))
    assert rep.ok and rep.first_zero == 2
    rep = null_propagation_check(fake_seq([800.0, 900.0]))
    assert rep.ok and rep.first_zero is None


def test_null_propagation_of_a_steep_constant_net():
    net = ExpressionNet(1, parse("eps^(-800)"))
    seq = psequence(net, K01, EpsGrid(0.5, 0.9999, 10), k_max=2)
    assert seq.ln(0) == pytest.approx(800.0)
    rep = null_propagation_check(seq)
    assert rep.ok and rep.first_zero == 1 and rep.first_violation is None


# ---------------------------------------------------------------------------
# bounded-derivative class
# ---------------------------------------------------------------------------


def test_ginfty_decreasing_sequence():
    rep = classify_ginfty(fake_seq([0.0, -1.0, -2.0, -math.inf]))
    assert rep.verdict == "yes-evidence"
    assert rep.agree


def test_ginfty_rising_sequence():
    rep = classify_ginfty(fake_seq([0.0, 1.0, 2.0]))
    assert rep.verdict == "no"
    assert rep.bound_verdict == "no" and rep.decreasing_verdict == "no"


def test_ginfty_disagreement_is_inconclusive():
    # bounded by P_0 but not monotone: the two readings split, which for
    # genuine log-convex data cannot happen
    rep = classify_ginfty(fake_seq([0.0, -2.0, -0.5]))
    assert rep.bound_verdict == "yes-evidence"
    assert rep.decreasing_verdict == "no"
    assert not rep.agree
    assert rep.verdict == "inconclusive"


def test_ginfty_unstable_is_inconclusive():
    rep = classify_ginfty(fake_seq([0.0, -1.0], stable=[True, False]))
    assert rep.verdict == "inconclusive"


def test_ginfty_on_catalog_nets(catalog_sequences):
    expected = {
        "osc": "no",
        "const_ginfty": "yes-evidence",
        "delta": "no",
        "one": "yes-evidence",
        "multiscale": "no",
        "compact_osc": "no",
    }
    for name, want in expected.items():
        for seq in catalog_sequences[name]:
            rep = classify_ginfty(seq)
            assert rep.verdict == want, (name, rep)
            assert rep.agree


# ---------------------------------------------------------------------------
# exponential-rate classes
# ---------------------------------------------------------------------------


def test_gla_validation():
    seq = fake_seq([0.0] * 5)
    with pytest.raises(RegularityError):
        classify_gla(seq, 0.0)
    with pytest.raises(RegularityError):
        classify_gla(fake_seq([0.0, 1.0]), 1.0)


def test_gla_three_way_split():
    seq = fake_seq([0.0, 0.8, 1.6, 2.4, 3.2])  # tail rate exactly 0.8
    yes = classify_gla(seq, 1.0)
    assert yes.verdict == "yes-evidence"
    assert yes.s_hat == pytest.approx(0.8)
    assert yes.a_prime == pytest.approx(0.85)
    no = classify_gla(seq, 0.5)
    assert no.verdict == "no" and no.a_prime is None
    near = classify_gla(seq, 0.85)
    assert near.verdict == "inconclusive"


def test_gla_witness_dominates_sequence():
    seq = fake_seq([0.3, 0.8, 1.6, 2.4, 3.2])
    v = classify_gla(seq, 1.2)
    assert v.verdict == "yes-evidence"
    for k in range(seq.k_max + 1):
        ln = seq.ln(k)
        if ln != -math.inf:
            assert ln <= v.a_prime * k + v.b + 1e-12


def test_gla_negligible_tail():
    seq = fake_seq([0.0, -math.inf, -math.inf, -math.inf, -math.inf])
    v = classify_gla(seq, 1.0)
    assert v.verdict == "yes-evidence"
    assert v.s_hat == -math.inf
    assert v.a_prime == pytest.approx(0.05)
    assert v.b == pytest.approx(0.0)


def test_gla_zero_order_negligible_but_tail_not():
    seq = fake_seq([-math.inf, 0.0, 0.0, 0.0, 0.0])
    v = classify_gla(seq, 3.0)
    assert v.verdict == "no"
    assert v.s_hat == math.inf


def test_gla_unstable_inconclusive():
    seq = fake_seq([0.0] * 5, stable=[True, True, True, False, True])
    assert classify_gla(seq, 1.0).verdict == "inconclusive"


def test_gla_on_catalog_osc(catalog_sequences):
    seq = catalog_sequences["osc"][0]
    yes = classify_gla(seq, 1.5)
    assert yes.verdict == "yes-evidence"
    assert yes.s_hat == pytest.approx(1.0, abs=1e-6)
    no = classify_gla(seq, 0.5)
    assert no.verdict == "no"


# ---------------------------------------------------------------------------
# sublinear scan and growth characterisation
# ---------------------------------------------------------------------------


def test_sublinear_constant_net(catalog_nets, compacts, grid):
    rep = classify_sublinear(catalog_nets["one"], compacts, grid, k_max=4)
    assert rep.verdict == "sublinear-evidence"
    for row in rep.per_compact:
        assert row.s_full == -math.inf
        assert row.a_witness == pytest.approx(0.25)


def test_sublinear_requires_enough_orders(catalog_nets, compacts, grid):
    with pytest.raises(RegularityError):
        classify_sublinear(catalog_nets["one"], compacts, grid, k_max=3)
    # no compact, no evidence
    with pytest.raises(RegularityError):
        classify_sublinear(catalog_nets["osc"], [], grid)


def test_growth_char_validation():
    with pytest.raises(RegularityError):
        growth_char_check(fake_seq([0.0, 1.0]), 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_threshold_gives_no_verdict(bad, catalog_nets, compacts, grid):
    # a nan base read no/no with agree true, and an infinite tol passed
    # every check: verdicts from no check.  classify_sublinear refuses before
    # it samples anything.
    seq = fake_seq([0.0, 1.0, 2.0, 3.0, 4.0])
    calls = [
        lambda: growth_char_check(seq, bad),
        lambda: growth_char_check(seq, 1.0, bad),
        lambda: classify_ginfty(seq, bad),
        lambda: classify_gla(seq, bad),
        lambda: classify_gla(seq, 1.0, bad),
        lambda: classify_sublinear(catalog_nets["one"], compacts, grid, k_max=4, tol=bad),
    ]
    for call in calls:
        with pytest.raises(RegularityError, match="must be a finite number"):
            call()


def test_a_negative_tol_gives_no_verdict(catalog_nets, compacts, grid):
    # on a constant sequence a tol of -0.5 read growth no/no with agree true,
    # and a tol of -2 read G^(la) yes-evidence at a' = -1, below the tail
    # slope 0.  classify_sublinear refuses before it samples anything.
    seq = fake_seq([0.0, 0.0, 0.0, 0.0, 0.0])
    calls = [
        lambda: growth_char_check(seq, 1.0, -0.5),
        lambda: classify_ginfty(seq, -0.5),
        lambda: classify_gla(seq, 1.0, -2.0),
        lambda: classify_sublinear(catalog_nets["one"], compacts, grid, k_max=4, tol=-0.5),
    ]
    for call in calls:
        with pytest.raises(RegularityError, match="tol must be >= 0"):
            call()
    # tol = 0 is a check with no slack, not a refused one
    assert growth_char_check(seq, 1.0, 0.0).bound_verdict == "yes-evidence"
    assert classify_ginfty(seq, 0.0).verdict == "yes-evidence"


def test_growth_char_linear_matches_base():
    seq = fake_seq([0.0, 1.0, 2.0, 3.0])
    rep = growth_char_check(seq, math.e)
    assert rep.bound_verdict == "yes-evidence"
    assert rep.ratio_verdict == "yes-evidence"
    assert rep.agree
    too_small = growth_char_check(seq, 1.0)
    assert too_small.bound_verdict == "no" and too_small.ratio_verdict == "no"


def test_growth_char_super_exponential():
    seq = fake_seq([0.5 * k * k for k in range(5)])
    rep = growth_char_check(seq, math.e)
    assert rep.bound_verdict == "no" and rep.ratio_verdict == "no" and rep.agree


def test_growth_char_with_negligible_tail():
    seq = fake_seq([0.0, -math.inf, -math.inf])
    rep = growth_char_check(seq, 1.0)
    assert rep.bound_verdict == "yes-evidence" and rep.ratio_verdict == "yes-evidence"


def test_growth_char_unstable():
    rep = growth_char_check(fake_seq([0.0, 1.0], stable=[False, True]), 1.0)
    assert rep.bound_verdict == "inconclusive"


def _ln_le_ref(a, b, tol):
    # a <= b + tol; P = 0 (ln -inf) passes on the left and fails any other
    # value on the right
    return a == -math.inf or (b != -math.inf and a <= b + tol)


_LN = st.one_of(st.just(-math.inf), st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 8).flatmap(lambda k_max: st.tuples(
        st.lists(_LN, min_size=k_max + 1, max_size=k_max + 1),
        st.lists(st.booleans(), min_size=k_max + 1, max_size=k_max + 1),
    )),
    st.sampled_from([1.0, math.e, math.e**2]),
)
@example(([-math.inf, -5.0, -6.0, -7.0, -8.0], [True] * 5), 1.0)
def test_growth_char_follows_its_docstring(lns_stable, base):
    lns, stable = lns_stable
    seq = fake_seq(lns, stable)
    tol = 0.1
    rep = growth_char_check(seq, base, tol)
    g = classify_ginfty(seq, tol) if base == 1.0 else None
    if not all(stable):
        assert (rep.bound_verdict, rep.ratio_verdict, rep.agree) == ("inconclusive", "inconclusive", True)
        if g is not None:
            assert (g.verdict, g.bound_verdict, g.decreasing_verdict) == ("inconclusive",) * 3
        return
    ln_base = math.log(base)
    bound = all(_ln_le_ref(lns[k] - k * ln_base, lns[0], tol) for k in range(len(lns)))
    ratio = all(_ln_le_ref(lns[k + 1], lns[k] + ln_base, tol) for k in range(len(lns) - 1))
    read = {True: "yes-evidence", False: "no"}
    assert (rep.bound_verdict, rep.ratio_verdict, rep.agree) == (read[bound], read[ratio], bound == ratio)
    if g is not None:
        # the G^inf verdict is the growth check at base 1
        assert (g.bound_verdict, g.decreasing_verdict, g.agree) == (read[bound], read[ratio], bound == ratio)
        assert g.verdict == (read[bound] if bound == ratio else "inconclusive")


def test_ginfty_and_growth_at_base_one_read_one_rule():
    # P_0 = 0 with later orders non-zero: sup_k P_k <= P_0 fails, and the
    # growth check at base 1 reads the same bound (anchored at P_0, not at
    # the first non-zero order)
    seq = fake_seq([-math.inf, -5.0, -6.0, -7.0, -8.0])
    g = classify_ginfty(seq)
    assert (g.verdict, g.bound_verdict, g.decreasing_verdict, g.agree) == ("no", "no", "no", True)
    rep = growth_char_check(seq, 1.0)
    assert (rep.bound_verdict, rep.ratio_verdict, rep.agree) == ("no", "no", True)


def test_growth_char_on_catalog_nets(catalog_sequences):
    # e^k growth: base e fits osc exactly, base 1 is too small
    seq = catalog_sequences["osc"][0]
    fit = growth_char_check(seq, math.e)
    assert fit.bound_verdict == "yes-evidence" and fit.agree
    small = growth_char_check(seq, 1.0)
    assert small.bound_verdict == "no" and small.agree


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k_max", [4, np.int64(4)], ids=["int", "numpy_int"])
def test_build_report_shape(catalog_nets, compacts, grid, k_max):
    rep = build_report(catalog_nets["one"], compacts, grid, k_max=k_max)
    assert type(rep.k_max) is int
    doc = rep.to_json_dict()
    assert set(doc) == {
        "net",
        "K",
        "k_max",
        "ln_p",
        "stable",
        "ginfty",
        "gla",
        "sublinear",
        "landau",
        "growth_char",
    }
    assert doc["k_max"] == 4
    assert doc["ln_p"][0] == pytest.approx(0.0)
    assert doc["ln_p"][1] == "-inf"
    assert doc["ginfty"]["verdict"] == "yes-evidence"
    assert all(g["verdict"] == "yes-evidence" for g in doc["gla"])
    assert doc["sublinear"]["verdict"] == "sublinear-evidence"
    # the whole document must be JSON-serialisable as-is
    json.dumps(doc)


def test_build_report_requires_compacts(catalog_nets, grid):
    with pytest.raises(RegularityError):
        build_report(catalog_nets["one"], [], grid)


# ---------------------------------------------------------------------------
# properties of the fits and verdicts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", tuple(CATALOG))
def test_scaling_by_eps_power_shifts_every_valuation(name, catalog_nets, catalog_sequences, grid):
    # v(eps^N u) = N + v(u) for every order; +inf (a negligible order) stays +inf
    u = catalog_nets[name]
    base = catalog_sequences[name][0]
    assert base.entries[0].table.K == K01
    for N in (1, 3):
        scaled = ExpressionNet(1, Mul((EpsPow(Fraction(N)), u.expression)),
                               u.oscillation_hint, u.support_box)
        seq = psequence(scaled, K01, grid, k_max=6)
        for s, b in zip(seq.entries, base.entries, strict=True):
            est, ref = s.estimate, b.estimate
            # approx(inf) matches inf alone
            assert est.value == pytest.approx(ref.value + N, abs=1e-9), (name, N, s.k)
            assert (est.window, est.method, est.stable) == (ref.window, ref.method, ref.stable)


@pytest.mark.parametrize("name", tuple(CATALOG))
def test_verdicts_do_not_depend_on_the_order_of_the_compacts(name, catalog_nets, compacts, grid):
    u = catalog_nets[name]
    backwards = tuple(reversed(compacts))
    sub, sub_back = classify_sublinear(u, compacts, grid), classify_sublinear(u, backwards, grid)
    assert sub_back.verdict == sub.verdict
    assert sub_back.per_compact == tuple(reversed(sub.per_compact))
    a = class_A_membership(u, 1, compacts, 3, grid)
    a_back = class_A_membership(u, 1, backwards, 3, grid)
    assert a_back.verdict == a.verdict
    assert Counter(a_back.rows) == Counter(a.rows)
