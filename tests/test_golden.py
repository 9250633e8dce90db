"""Pinned SHA-256 digests of small generated datasets.

Each case generates a dataset at ``verify_rate=1`` and hashes every voxel
file and manifest in order.  The digests were recorded before the flip gate
and the deform move selection were rewritten, so any change to the voxels,
the labels or the deform counters of these datasets fails here.  The
``3d-tubes`` digest was recorded before the tube stamp was batched; it is the
only case that draws a trefoil, a Hopf link and an embedded circle wedge.  The
``3d-catalog``, ``4d-catalog`` and ``4d-cutout-catalog`` digests were
recorded before the per-kind code moved into one table of kind records; they
draw the 3D and 4D kinds no other case draws (every 4D kind but ``ball``,
embedded and cut out, and the 3D shells, tori and wedge cut-outs).  The
``2d-deform-dilate-bias`` digest was recorded while each such sample still
built its noise field twice, once to deform and once to bias the dilation.  The
``4d-plain``, ``4d-deform`` and ``4d-dilate`` digests were re-recorded when
``mixed`` stopped flipping its coin onto a mode in which no kind fits: no
cut-out fits 13^4, so half of those samples' attempts used to draw "cutout",
fail as too small and retry under a fresh seed.  Now every attempt draws an
embedded object without the coin's draw, so the samples differ.  The
``3d-dilate-bias`` and ``4d-dilate-bias`` digests were recorded before the
dilation loop judged candidates by keys computed in advance; they pin
noise-biased dilation in 3D and 4D, which no other case reaches.  A change
that alters the output on purpose must say why and update the digest.
"""
import hashlib
import json
import warnings

import pytest

from topovox.pipeline import DatasetConfig, SampleManifest, generate_dataset, read_voxels
from topovox.seeds import CATALOG

from oracles import interior_betti

TUBE_WEIGHTS = {"open_tube": 1.0, "trefoil_tube": 1.0, "hopf_link": 1.0, "circle_wedge": 1.0}
CATALOG_3D = {k: 1.0 for k in ("ball", "sphere_shell", "solid_torus", "torus_shell", "circle_wedge")}
CATALOG_4D = {k: 1.0 for k in ("S1xB3", "S2xB2", "T2xB2", "tube_IxS2", "tube_I2xS1", "tube_IxT2")}
CUTOUT_4D = {k: 1.0 for k in ("S1xB3", "S2xB2", "T2xB2")}

CASES = {
    "2d-plain": (dict(dims=(32, 32), count=4), "b6b7c1d814012f765a445378345c96044a7306f3b50920b9eff8ace544d5073f"),
    "2d-deform": (dict(dims=(32, 32), count=3, deform_iterations=40), "50c71e4df0d96816f0211bed500cdb24e15d5913bfa8834a10b302b3063c79c8"),
    "2d-dilate": (dict(dims=(32, 32), count=3, dilate_iterations=2, dilate_noise_bias=True), "45c9aa317e296da8a269023e3089fdb77464ef5ce1776ac1b4b4dd19b6e18fae"),
    "2d-deform-dilate-bias": (dict(dims=(32, 32), count=3, deform_iterations=20, dilate_iterations=1, dilate_noise_bias=True), "ca82a088510085b77d5d7c7b1c1766db934be839260b16a2249625f931f0e473"),
    "3d-plain": (dict(dims=(20, 20, 20), count=3, max_objects=2), "6dbdd61d33e814d231ad296b0ee5fd2f1261d5050c08b55d30a2ad24aa556d70"),
    "3d-deform": (dict(dims=(20, 20, 20), count=2, max_objects=2, deform_iterations=20), "813dd6d24af9b4edcff536ba3e4e7e220056ec82a30e4da1d4613f2aa02c9bc4"),
    "3d-dilate": (dict(dims=(20, 20, 20), count=2, max_objects=2, dilate_iterations=1), "e26137dc990b6269545d3cfcfc0cdf9394f7eff39359653a703667121fa232c8"),
    "4d-plain": (dict(dims=(13, 13, 13, 13), count=2, max_objects=1), "bf163bc3463143bbd087f40fc2d61f0e9593b5bf908bb6a0ef79c4ccb2788209"),
    "4d-deform": (dict(dims=(13, 13, 13, 13), count=3, max_objects=1, deform_iterations=8), "fb0709011440fe328e576c91ba026f64f0959fee9c68fda3cf1ce892fe6889c5"),
    "4d-cutout-deform": (dict(dims=(14, 14, 14, 14), count=1, max_objects=1, mode="cutout", deform_iterations=8), "feba306368c3ae61409f2d2aa682b0c099d2ffe72806e224694e9f8aa17c720f"),
    "4d-dilate": (dict(dims=(13, 13, 13, 13), count=1, max_objects=1, dilate_iterations=1), "2b04af424dc77774eb560feec9cb1ba297280b2da6d27323fd7ae778a23f7f9b"),
    "3d-dilate-bias": (dict(dims=(20, 20, 20), count=2, max_objects=2, dilate_iterations=1, dilate_noise_bias=True), "463d3b97c8b738730aa5bb92680ea456071e34bb88b072a29461bcfee822da28"),
    "4d-dilate-bias": (dict(dims=(13, 13, 13, 13), count=1, max_objects=1, dilate_iterations=1, dilate_noise_bias=True), "65d6f17820b667e87a34ad32aaac883e83f5b750b34c25820937fdbbe75e1756"),
    "3d-tubes": (dict(dims=(40, 40, 40), count=4, mode="embed", max_objects=1, shape_weights=TUBE_WEIGHTS), "0dc3b73adc16ba0146ac07443d458946161d2c1fe6b6774a7343bffef9a2e746"),
    "3d-catalog": (dict(dims=(40, 40, 40), count=9, mode="mixed", max_objects=2, shape_weights=CATALOG_3D), "aa3fcb35e5f13a98ae474bca664a713bf48ada5879cdf6956037b05aac03235e"),
    "4d-catalog": (dict(dims=(22, 22, 22, 22), count=8, mode="embed", max_objects=1, shape_weights=CATALOG_4D), "e6d8577f5b81d562704506171d9e726f49f2d267f417b51399f643dc399ad7a8"),
    "4d-cutout-catalog": (dict(dims=(24, 24, 24, 24), count=4, mode="cutout", max_objects=1, shape_weights=CUTOUT_4D), "32f1a8f06c808eaa11d31dc29a6c025e916e477e6e960bfcd9a979bf53b94917"),
}


def generate(out_dir, **fields):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return generate_dataset(
            DatasetConfig(out_dir=str(out_dir), master_seed=7, verify_rate=1.0, **fields)
        )


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """Each case's (voxel path, manifest path) pairs, generated once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = generate(tmp_path_factory.mktemp(name), **CASES[name][0])
        return cache[name]

    return get


def dataset_digest(pairs) -> str:
    digest = hashlib.sha256()
    for voxel_path, manifest_path in pairs:
        digest.update(voxel_path.read_bytes())
        digest.update(manifest_path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(datasets, name):
    assert dataset_digest(datasets(name)) == CASES[name][1]


def test_golden_cases_draw_every_kind_the_table_draws(datasets):
    drawn = set()
    for name in CASES:
        for _, manifest in datasets(name):
            doc = json.loads(manifest.read_text())["construction"]
            if doc["family"] == "cube_complement":
                drawn |= {("cutout", doc["ndim"], p["kind"]) for p in doc["placement"]}
            else:
                drawn |= {("embed", doc["ndim"], c["kind"]) for c in doc["children"]}
    table = {
        (mode, ndim, kind.name)
        for kind in CATALOG
        for mode, dims in (("cutout", kind.carve), ("embed", kind.embed))
        for ndim in dims
    }
    assert len(table) == 26
    assert drawn == table


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_labels_hold_for_the_interior(datasets, name):
    # the interior-label contract: every label is also the Betti vector of
    # the foreground read with face adjacency, the background with full
    for voxel_path, manifest_path in datasets(name):
        label = SampleManifest.from_json(manifest_path.read_text()).label
        assert interior_betti(read_voxels(voxel_path).data) == label.betti, voxel_path.name
