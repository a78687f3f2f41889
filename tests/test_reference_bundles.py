"""Every benchmark bundle keeps the sha256 recorded in perfbench/reference.json,
and every other sample scenario the sha256 pinned here.

The scenarios run in this process; the hash is the benchmark's own
`normalized_sha256`, loaded from perfbench/run.py without changing it.
"""

import importlib.util
import json
import os

import pytest

from odirac.scenarios import bundle_to_json, load_scenario, run_scenario

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO, "perfbench", "reference.json")) as _fh:
    REFERENCE = json.load(_fh)["bundles"]

# Sample scenarios the benchmark does not list.  c3_spin_probe is the only
# sample whose blocks have a nonzero cubic part under dirac, index and higher.
# b4_spin_probe (dim S = 32768) is pinned to the bundle of the eager spin
# layer, which built every spin basis vector up front.  c3_kostant_adjoint,
# the one rank-3 finite module, is pinned to the bundle of the simple
# quotient whose radical was the nullspace of the Verma Gram.  a2_circle_split,
# whose quotient blocks at three weights have an empty generalized kernel, is
# pinned to its first bundle: the circle task stopped with an internal error
# there before the restriction maps took a dim x 0 basis.  a3_kl_s1s3, a simple
# module with weight multiplicities above 1, is pinned to the bundle of the
# simple quotient of a Verma window.  f4_spin_probe (dim S = 2^23) is pinned
# to the bundle of the spin module that listed every subset sum of q+ up front.
# a3_kl_s2, the other A3 simple module whose Dirac cohomology the Bruhat
# interval does not count, is pinned to the bundle of the Jordan tops chosen
# by one rank per candidate.  b3_kl_s2, a B3 simple module with h = t whose
# blocks mostly carry a nonzero cubic part, is pinned to the bundle of the
# block that assembled C+, C- and the cubic part apart and added them.
# a2_levi_tensor_vogan, the one sample with a Levi h whose vogan task finds
# singular classes in H_top^k for k >= 1 (k = 0 to 3), is pinned to the bundle
# of the singular classes counted as subspaces: ker D^{2k+1} cut by the
# preimages of the neighbours' H_top denominators, modulo its own.
PINNED = {
    "scenarios/a2_circle_split.json":
        "b05f7e7e1b0f1969e171e07cccd88385290169db786002f74a4c16f0f3f26fdf",
    "scenarios/c3_spin_probe.json":
        "c61e872b99648a05deaf2fad75838fb084728ddf4d90d4bf05a1dd4bdfc6e8c5",
    "scenarios/b4_spin_probe.json":
        "ca4c9eb83971696ec435952535665d907e22c0eff12b2b1800fbfbb2012532f9",
    "scenarios/c3_kostant_adjoint.json":
        "c84d03cc0300ed5ea666b9ffb85e2e37963df7ca51ee991ce2f3c913618ccd29",
    "scenarios/a3_kl_s1s3.json":
        "3d9863448a6babc8248aca72cfa5b9e6f250925cd6c208ebcaaf114667bee659",
    "scenarios/f4_spin_probe.json":
        "092015e8fc1f30deab2384dcb61fcc9005f8f923e4c2694e6e1fad423703ca90",
    "scenarios/a3_kl_s2.json":
        "e44dcde0525a9ecc8cd4523d84d1f0699fce28ec74ca1d26f9e0f6e0ea0f8cac",
    "scenarios/b3_kl_s2.json":
        "c2614b10816422b9bbbe16d97238135f596fdd06567fe5e6c07b885b6696cd6e",
    "scenarios/a2_levi_tensor_vogan.json":
        "761ac2200d629b1ae1655933c0041d9747d1cab862ec648c5c153eb4cf7b7142",
}
BUNDLES = {**REFERENCE, **PINNED}


def _normalized_sha256():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(REPO, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.normalized_sha256


normalized_sha256 = _normalized_sha256()


def test_every_sample_scenario_is_pinned():
    samples = {f"scenarios/{f}" for f in os.listdir(os.path.join(REPO, "scenarios"))
               if f.endswith(".json")}
    assert samples and not samples - set(BUNDLES)


@pytest.mark.parametrize("scenario", sorted(BUNDLES))
def test_bundle_keeps_reference_sha256(scenario):
    bundle = run_scenario(load_scenario(os.path.join(REPO, scenario)))
    assert bundle["ok"]
    # through the bytes the CLI writes, as the benchmark reads them back
    assert normalized_sha256(json.loads(bundle_to_json(bundle))) == BUNDLES[scenario]
