"""Pinned SHA-256 digests of small generated datasets.

Each case generates a dataset at ``verify_rate=1`` and hashes every voxel
file and manifest in order.  The digests were recorded before the flip gate
and the deform move selection were rewritten, so any change to the voxels,
the labels or the deform counters of these datasets fails here.  The
``3d-tubes`` digest was recorded before the tube stamp was batched; it is the
only case large enough to draw a trefoil, a Hopf link and a circle wedge.  The
``2d-deform-dilate-bias`` digest was recorded while each such sample still
built its noise field twice, once to deform and once to bias the dilation.  A
change that alters the output on purpose must say why and update the digest.
"""
import hashlib
import json
import warnings

import pytest

from topovox.pipeline import DatasetConfig, generate_dataset

TUBE_WEIGHTS = {"open_tube": 1.0, "trefoil_tube": 1.0, "hopf_link": 1.0, "circle_wedge": 1.0}

CASES = {
    "2d-plain": (dict(dims=(32, 32), count=4), "b6b7c1d814012f765a445378345c96044a7306f3b50920b9eff8ace544d5073f"),
    "2d-deform": (dict(dims=(32, 32), count=3, deform_iterations=40), "50c71e4df0d96816f0211bed500cdb24e15d5913bfa8834a10b302b3063c79c8"),
    "2d-dilate": (dict(dims=(32, 32), count=3, dilate_iterations=2, dilate_noise_bias=True), "45c9aa317e296da8a269023e3089fdb77464ef5ce1776ac1b4b4dd19b6e18fae"),
    "2d-deform-dilate-bias": (dict(dims=(32, 32), count=3, deform_iterations=20, dilate_iterations=1, dilate_noise_bias=True), "ca82a088510085b77d5d7c7b1c1766db934be839260b16a2249625f931f0e473"),
    "3d-plain": (dict(dims=(20, 20, 20), count=3, max_objects=2), "6dbdd61d33e814d231ad296b0ee5fd2f1261d5050c08b55d30a2ad24aa556d70"),
    "3d-deform": (dict(dims=(20, 20, 20), count=2, max_objects=2, deform_iterations=20), "813dd6d24af9b4edcff536ba3e4e7e220056ec82a30e4da1d4613f2aa02c9bc4"),
    "3d-dilate": (dict(dims=(20, 20, 20), count=2, max_objects=2, dilate_iterations=1), "e26137dc990b6269545d3cfcfc0cdf9394f7eff39359653a703667121fa232c8"),
    "4d-plain": (dict(dims=(13, 13, 13, 13), count=2, max_objects=1), "5e9e654d2e2c2e60d67879986ab2f6b67ecfc371f959f19df701ec06cc0b1464"),
    "4d-deform": (dict(dims=(13, 13, 13, 13), count=3, max_objects=1, deform_iterations=8), "4a3d6798ddc0d7a251b0bbc034bc223875d81b7a43ef041bfb6e016c838473d3"),
    "4d-cutout-deform": (dict(dims=(14, 14, 14, 14), count=1, max_objects=1, mode="cutout", deform_iterations=8), "feba306368c3ae61409f2d2aa682b0c099d2ffe72806e224694e9f8aa17c720f"),
    "4d-dilate": (dict(dims=(13, 13, 13, 13), count=1, max_objects=1, dilate_iterations=1), "f76ac170ac10260626f505909e39eb577ef41712291507e1ddd587cb41fe0c0c"),
    "3d-tubes": (dict(dims=(40, 40, 40), count=4, mode="embed", max_objects=1, shape_weights=TUBE_WEIGHTS), "0dc3b73adc16ba0146ac07443d458946161d2c1fe6b6774a7343bffef9a2e746"),
}


def generate(out_dir, **fields):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return generate_dataset(
            DatasetConfig(out_dir=str(out_dir), master_seed=7, verify_rate=1.0, **fields)
        )


def dataset_digest(out_dir, **fields) -> str:
    pairs = generate(out_dir, **fields)
    digest = hashlib.sha256()
    for voxel_path, manifest_path in pairs:
        digest.update(voxel_path.read_bytes())
        digest.update(manifest_path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(tmp_path, name):
    fields, expected = CASES[name]
    assert dataset_digest(tmp_path / name, **fields) == expected


def test_tube_case_draws_every_tube_kind(tmp_path):
    fields, _ = CASES["3d-tubes"]
    kinds = {
        child["kind"]
        for _, manifest in generate(tmp_path, **fields)
        for child in json.loads(manifest.read_text())["construction"]["children"]
    }
    assert {"trefoil_tube", "hopf_link", "circle_wedge", "open_tube"} <= kinds
