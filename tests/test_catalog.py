import math
from fractions import Fraction

import pytest

from colombeau.catalog import (
    CATALOG,
    REFERENCE_COMPACTS,
    catalog_list,
    catalog_net,
    catalog_oracle,
    parse_catalog_spec,
)
from colombeau.nets import NetError, seminorm, sharp_seminorm
from colombeau.scale import default_grid


def test_reference_compacts():
    assert len(REFERENCE_COMPACTS) == 2
    assert REFERENCE_COMPACTS[0].describe() == [[[0.0, 1.0]]]
    assert REFERENCE_COMPACTS[1].describe() == [[[-1.0, 2.0]]]


def test_parse_catalog_spec():
    assert parse_catalog_spec("osc") == ("osc", None)
    assert parse_catalog_spec("multiscale(8)") == ("multiscale", 8)
    assert parse_catalog_spec("  const_ginfty( 3 ) ") == ("const_ginfty", 3)
    for bad in ("bogus", "osc(", "multiscale(x)", "", "osc zwei"):
        with pytest.raises(NetError):
            parse_catalog_spec(bad)


def test_catalog_net_parameters():
    assert len(catalog_net("multiscale(3)").describe()["terms"]) == 3
    assert len(catalog_net("multiscale").describe()["terms"]) == 8
    assert catalog_net("const_ginfty", parameter=2).describe()["expression"] == "eps^(-2)*sin(x1)"
    with pytest.raises(NetError):
        catalog_net("osc", parameter=3)
    with pytest.raises(NetError):
        catalog_net("multiscale(3)", parameter=4)
    # consistent duplicate parameter is tolerated
    assert len(catalog_net("multiscale(3)", parameter=3).describe()["terms"]) == 3
    with pytest.raises(NetError):
        catalog_net("const_ginfty(0)")


@pytest.mark.parametrize(
    "spec, k, parameter",
    [("multiscale(3)", 2, 5), ("osc", 2, 7), ("multiscale", 1, 0), ("const_ginfty", 1, -2)],
)
def test_catalog_oracle_rejects_what_catalog_net_rejects(spec, k, parameter):
    with pytest.raises(NetError) as net_error:
        catalog_net(spec, parameter)
    with pytest.raises(NetError) as oracle_error:
        catalog_oracle(spec, k, parameter=parameter)
    assert type(oracle_error.value) is NetError
    assert str(oracle_error.value) == str(net_error.value)


def test_builders_have_expected_shape(catalog_nets):
    hints = {
        "osc": 1,
        "const_ginfty": 0,
        "delta": 1,
        "one": 0,
        "multiscale": 16,
        "compact_osc": 1,
    }
    for name, hint in hints.items():
        net = catalog_nets[name]
        assert net.dimension == 1
        assert net.oscillation_hint == hint, name
    assert catalog_nets["compact_osc"].support_box.describe() == [[[-2.0, 2.0]]]
    assert catalog_nets["osc"].support_box is None


def test_describe_variants(catalog_nets):
    assert catalog_nets["osc"].describe()["expression"] == "sin(x1*eps^(-1))"
    assert catalog_nets["multiscale"].describe()["variant"] == "finite_sum"
    assert len(catalog_nets["multiscale"].describe()["terms"]) == 8


def test_oracle_values():
    assert catalog_oracle("osc", 0) == 0
    assert catalog_oracle("osc", 3) == -3
    assert catalog_oracle("const_ginfty", 5) == -4  # default N=4
    assert catalog_oracle("const_ginfty(2)", 5) == -2
    assert catalog_oracle("delta", 2) == -3
    assert catalog_oracle("one", 0) == 0
    assert catalog_oracle("one", 1) == math.inf
    assert catalog_oracle("compact_osc", 6) == -6
    with pytest.raises(NetError):
        catalog_oracle("osc", -1)


def test_multiscale_oracle_formula():
    # min_j (j^2 - 2jk) over j = 1..J: the parabola bottoms out near j = k
    assert catalog_oracle("multiscale", 0) == 1
    assert catalog_oracle("multiscale", 1) == -1
    assert catalog_oracle("multiscale", 4) == -16
    assert catalog_oracle("multiscale", 6) == -36
    # small J clips the minimiser at the last term
    assert catalog_oracle("multiscale(2)", 6) == Fraction(2 * 2 - 2 * 2 * 6)
    assert isinstance(catalog_oracle("multiscale", 3), Fraction)


def test_oracles_match_measurements_spot_check(catalog_sequences):
    # the full scan over nets, compacts and orders is the acceptance gate;
    # here one deep order per net guards the catalog wiring itself
    for name, seqs in catalog_sequences.items():
        want = catalog_oracle(name, 5)
        for seq in seqs:
            got = seq.entries[5].estimate.value
            if want == math.inf:
                assert got == math.inf, name
            else:
                assert got == pytest.approx(float(want), abs=0.01), name


def test_delta_peak_inside_both_compacts():
    # the bump peak at the origin lies on the boundary of [0,1] and in the
    # interior of [-1,2]; endpoint sampling must see it in both cases
    net = catalog_net("delta")
    for K in REFERENCE_COMPACTS:
        v = seminorm(net, 0, K, 2**-3)
        assert v.ln_value == pytest.approx(3 * math.log(2.0) - 1.0)


def test_catalog_list_table():
    text = catalog_list()
    for name in CATALOG:
        assert name in text
    assert "default 8" in text
    header = text.splitlines()[0]
    assert "name" in header and "oracle" in header
