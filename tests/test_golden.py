"""Golden output digests of ``run_config``.

Criterion 14 compares a run only with itself, so it cannot see a refactor
that changes what the program computes.  This test runs fixed configs and
compares the sha256 of every file ``run_config`` writes with a digest
recorded before the refactor it guards:

- ``classify`` on each catalog net on ``REFERENCE_COMPACTS`` (a short eps
  grid and ``k_max = 5`` keep it fast);
- ``mollify-converge`` on ``compact_osc``, which exercises
  ``build_mollifier`` and ``MollifiedNet``, and on ``one``, whose reference
  valuation is ``+inf`` and so goes through the JSON encoder's ``"inf"``;
- ``valuation`` (k = 1) on ``compact_osc`` and on ``one``, whose ``v_hat``
  is ``"inf"`` by the ``negligible-floor`` method, ``seminorms`` (k in
  [0, 2]) on ``delta`` and ``class-a`` (N = 1) on ``const_ginfty``: the
  paths from a sampled seminorm table to its fit.  These digests were
  recorded before the change that made ``sharp_seminorm`` the one place a
  table is fitted and let every fit keep its table;
- ``regular-bound`` and ``sublinear-density`` (``n_list [1, 2]``) on
  ``compact_osc`` over both reference compacts, on a ten-point grid (more
  than ``REGULAR_BOUND_J0`` = 4, so every row from j = 4 on is checked),
  and ``examples/sin_cos_2d.json``, the one d = 2 output.  These were
  recorded before the change that cut the mollifier quadrature into
  smaller blocks and gave the order-0 cutoff a closed form.

The digests were recorded with Python 3.11.7 and numpy 2.4.6.  Another
numpy can round the last bit of a float differently; a mismatch there means
the digests must be re-recorded, not that a refactor went wrong.

``test_cli_stdout_matches_golden_digests`` does the same for the analysis
subcommands of the command line: the sha256 of what each invocation prints
and its exit code (0, 2 and 3 all occur), plus the exit code 1 and the
``error:`` prefix of rejected inputs.
"""
import hashlib
import json
import os

import pytest

from colombeau import cli, load_config, run_config
from colombeau.catalog import CATALOG, REFERENCE_COMPACTS

_COMPACTS = [K.describe() for K in REFERENCE_COMPACTS]
_CLASSIFY_GRID = {"eps0": 0.5, "ratio": 0.5, "count": 16}
_CONVERGE_GRID = {"eps0": 0.5, "ratio": 0.8, "count": 20}
_DENSITY_GRID = {"eps0": 0.5, "ratio": 0.5, "count": 10}
_EXAMPLE_2D = os.path.join(os.path.dirname(__file__), os.pardir, "examples", "sin_cos_2d.json")

GOLDEN = {
    "osc": {
        "00-classify.json": "d61b4a742e1ddc52823e299c3043ac8654048b1b9290b27e574686b51c473fb9",
        "summary.json": "1e6e25886ec6d13163c94a8f1fb3f0d619f24337194925cdab26613d26648aa1",
    },
    "const_ginfty": {
        "00-classify.json": "ed958b3412baf8d02fbeeaca76d6d58345ade6ba33c91cd3c2df1c778816cc03",
        "summary.json": "034f938f1f5ec3091433e812ef7dbf1cf952e3e449210ccf7ea56448f969a376",
    },
    "delta": {
        "00-classify.json": "3bafff5cf5c7704abf6d8caaac057a2d45e9b543c6da7086fc9c2a53ce5fb9e6",
        "summary.json": "3bcd30895c1882148b90e622ca04dbc8d417ace993acade2d80e410edf523e67",
    },
    "one": {
        "00-classify.json": "eb932556b48324fa0c7f3c48fc27cb804ef8c4f0dce50c49bd9ce61d1fda9a83",
        "summary.json": "4f0ea61af7eb5045bb7d3f6559a0e825b90f2153f8b877b149422e0e938191b3",
    },
    "multiscale": {
        "00-classify.json": "c5cc3ac3890b7fa6c31dd2b90d3066af8453e47e853c92c646d04c58a495eeae",
        "summary.json": "6828365e71594271047055b164c138cbb4310818fce02bfb06d08283b607eee2",
    },
    "compact_osc": {
        "00-classify.json": "26b783aae7aea3e0a42650e25462faeb89c43727c50921ca5e9051baf8ec1e1b",
        "summary.json": "b2f6b6682e3507130d712a586d99e28b53b05d64722881ffb2b2fff2cc428c99",
    },
    "converge_compact_osc": {
        "00-mollify-converge.csv": "c405c050a0dd07db6ab64258d669d7452a8da66550faf2d11194ee6762eed8bc",
        "summary.json": "86576cd41d1e0123c03bd069ee1223220104c2a5cbe4aee3734e1f7a9b6c1aad",
    },
    "converge_one": {
        "00-mollify-converge.csv": "c20638ec2364edd411b250250f730afcd9e07613206c604f0ed67dc989057d12",
        "summary.json": "7e2b2d056d8883540935fee0fabccb138ac36042a86f5fb3615a8864ed963293",
    },
    "valuation_compact_osc": {
        "00-valuation.csv": "2e47c49826e33360b80dc012d611b122000f3c90bc56a8d7edb646072e4b4928",
        "summary.json": "da98c33cac06029d65ed66d41544753f24029b8bdaf2052f864461553964e346",
    },
    "valuation_one": {
        "00-valuation.csv": "52635abf985bd12b2d336946d9382ab46fb0d0ec5254bd1c66853beb505b168a",
        "summary.json": "cd56d83bd9a8a400575036f28ba07d8175228f9e41a7c057dda29e3bfcf0d8e6",
    },
    "seminorms_delta": {
        "00-seminorms.csv": "8f199b9cf305eaf0a2f5a64b26f259e8881253edef6c3f73729ca949729019ee",
        "summary.json": "25fb2d4eb2e4c4b0a72da5e6251e732e2bd3e47466990942ebccad820b5670d4",
    },
    "class_a_const_ginfty": {
        "00-class-a.csv": "c9ff1139990fe4c2cad70caf1a586cf4025c284eaf71a3c9bac060bf0b0cf3d9",
        "summary.json": "49e7ecab5d1000c72aeac55fab1bde0d0d7024f66e5daddb5fe05937108ec876",
    },
    "regular_bound_compact_osc": {
        "00-regular-bound.csv": "ca1a4e3d6f5d7f3515ae8c73f7dad40e0c0bf4597f36b3b11223772ed230eba9",
        "summary.json": "9a6e3299444b9eaa7454c7b5eb0817759236a0af3627ca87bcd2e8a99123e4b8",
    },
    "sublinear_density_compact_osc": {
        "00-sublinear-density.csv": "dbaab6ce3422bee8c059da3a06a92b1e7b1007f916ffedecd775d1ec9fd68564",
        "summary.json": "68696174f5261c7aea62ce3aff50b15b797a3428aac761c56c0e5426e3f966f6",
    },
    "sin_cos_2d": {
        "00-seminorms.csv": "869598c91508975088ce07f163f816e1bf8ceb9639dd97b2b60713cc46539529",
        "01-valuation.csv": "78a94d1fa5ef8aad338bedbf5b76e8500372ba7b67ecdcf83625188de5341459",
        "summary.json": "88d20e8862d271c2b41dbc474e6b8ebae7e516f5832ff47072566a1f9614cb5c",
    },
}


_FIT_CASES = [
    ("valuation_compact_osc", "compact_osc", {"kind": "valuation", "k": 1}),
    ("valuation_one", "one", {"kind": "valuation", "k": 1}),
    ("seminorms_delta", "delta", {"kind": "seminorms", "k_list": [0, 2]}),
    ("class_a_const_ginfty", "const_ginfty", {"kind": "class-a", "N": 1}),
]


def _config(name, net, experiment, grid, outdir):
    return load_config({
        "dimension": 1,
        "net": {"catalog": net},
        "compacts": _COMPACTS,
        "eps_grid": grid,
        "k_max": 5,
        "experiments": [experiment],
        "output_prefix": os.path.join(outdir, name),
    })


def _cases(outdir):
    for net in CATALOG:
        yield net, _config(net, net, {"kind": "classify"}, _CLASSIFY_GRID, outdir)
    for name, net, experiment in _FIT_CASES:
        yield name, _config(name, net, experiment, _CLASSIFY_GRID, outdir)
    for net in ("compact_osc", "one"):
        experiment = {"kind": "mollify-converge", "k": 1, "n_list": [1, 2, 3]}
        name = f"converge_{net}"
        yield name, _config(name, net, experiment, _CONVERGE_GRID, outdir)
    for kind in ("regular-bound", "sublinear-density"):
        name = f"{kind.replace('-', '_')}_compact_osc"
        experiment = {"kind": kind, "n_list": [1, 2]}
        yield name, _config(name, "compact_osc", experiment, _DENSITY_GRID, outdir)
    with open(_EXAMPLE_2D, encoding="utf-8") as fh:
        document = json.load(fh)
    document["output_prefix"] = os.path.join(outdir, "sin_cos_2d")
    yield "sin_cos_2d", load_config(document)


def _digests(files, name):
    out = {}
    for path in files:
        with open(path, "rb") as fh:
            out[os.path.basename(path)[len(name) + 1:]] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_run_config_outputs_match_golden_digests(tmp_path):
    got = {
        name: _digests(run_config(cfg).files, name)
        for name, cfg in _cases(str(tmp_path))
    }
    assert set(got) == set(GOLDEN)
    for name in GOLDEN:
        assert got[name] == GOLDEN[name], name


CLI_GOLDEN = [
    (["classify", "--net", "osc", "--compacts", "0,1", "--count", "12"], 0,
     "77502abb91184cc763351295678fd3d47ddd05e33a9d7c2c812cb3980f41a309"),
    (["classify", "--net", "eps^(-2)*sin(x1)", "--compacts", "0,1", "--kmax", "4",
      "--count", "10"], 0,
     "2bbb178c498557bc29e202f44747d741cf1a372e3e8afdca0b0f2589d6c51f60"),
    (["classify", "--net", "multiscale(2)", "--compacts", "0,1;-1,0|1,2", "--a", "1,3",
      "--bases", "1,5", "--kmax", "4", "--count", "10"], 0,
     "874834f8caa4fea381af1097316490c33857c292ee3010a1cc478aa5bcf82a3c"),
    (["classify", "--net", "cutoff(x1)*sin(x1/eps)", "--hint", "1", "--support=-2,2"], 0,
     "86b5ccce07f38ca5ecf8c8973ace5a5c1a68592a70dfed35b1fc742e03424716"),
    (["classify", "--net", "sin(eps^(-1))*sin(x1)", "--compacts", "0,1", "--kmax", "4",
      "--count", "10"], 2,
     "33a4336f674421bb59e835fea7b6184b3e5c3d17e44791bc430937fc1e7aaf5d"),
    (["landau", "--net", "delta"], 0,
     "56cc5e4972d9d07e7bc5aae3fe40560776d5043281e9e069a8010f6dd31ee6cd"),
    (["landau", "--net", "sin(eps^(-1))*sin(x1)", "--compacts", "0,1", "--kmax", "4",
      "--count", "10"], 2,
     "d80bf620a90c397c3e425ffee4705e5aa8ed34922cc1eb4855b0c16606bb061b"),
    (["mollify", "--net", "one", "--n", "1,2"], 0,
     "89792887af98c475cb7f0b0b1887db686913316da051955dc0c1b238197ab16f"),
    (["mollify", "--net", "compact_osc", "--k", "1", "--order", "24"], 0,
     "e323a6cc75627cd470e496cc66833b0ab85e9b4f268865320b61c01ecbcdf6ad"),
    (["mollify", "--net", "osc", "--n", "3", "--ratio", "0.5", "--compacts", "0,1"], 3,
     "5d44c0fdee61cf5571b16155c932097885b6e9628a74c1f4ddf84012dbcfd0d0"),
    (["class-a", "--net", "one", "--N", "1"], 0,
     "d5d957bdc62fe4e2f71b7db3a3d3b7e9eb28851967f56ef6f8ed4ff8fbbc9792"),
    (["class-a", "--net", "const_ginfty", "--N", "1"], 0,
     "fa04113cc27d2e31404594d1d26b0fab720a306388f9e94c01fdb5ffc2ed5289"),
    (["class-a", "--net", "sin(eps^(-1))*sin(x1)", "--N", "1", "--kmax", "1",
      "--count", "10"], 2,
     "3a2e458937ca08dc7527c0071a01827dccb2105a7956f794df084b38d5f1a113"),
]

CLI_REJECTED = [
    ["classify", "--net", "osc", "--kmax", "9"],
    ["class-a", "--net", "one", "--N", "0"],
    ["mollify", "--net", "one", "--n", "2,1"],
]


def test_cli_stdout_matches_golden_digests(capsys):
    for argv, code, digest in CLI_GOLDEN:
        assert cli.main(argv) == code, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    for argv in CLI_REJECTED:
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), argv
