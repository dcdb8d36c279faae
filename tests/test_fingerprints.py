"""Behaviour fingerprints: every matrix cell must reproduce its pinned digests.

``tests/data/fingerprints.json`` pins the scalar, per-channel and per-block
digests of a matrix of short seeded runs (see
``tests/data/gen_fingerprints.py``).  Any change to simulated behaviour
fails here with the first diverging tick block and the channels that moved;
a pure refactor or speed-up must pass without regenerating the manifest.
"""

import importlib.util
import json
import os

import pytest

_GEN_PATH = os.path.join(os.path.dirname(__file__), "data", "gen_fingerprints.py")
_spec = importlib.util.spec_from_file_location("gen_fingerprints", _GEN_PATH)
gen_fingerprints = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_fingerprints)

with open(gen_fingerprints.MANIFEST_PATH) as _fh:
    MANIFEST = json.load(_fh)

CELLS = {cell.key: cell for cell in gen_fingerprints.cells()}


def test_manifest_covers_the_matrix():
    assert MANIFEST["seed"] == gen_fingerprints.SEED
    assert MANIFEST["block_ticks"] == gen_fingerprints.BLOCK_TICKS
    assert sorted(MANIFEST["cells"]) == sorted(CELLS)


@pytest.mark.parametrize("key", sorted(CELLS))
def test_cell_matches_fingerprint(key):
    got = gen_fingerprints.fingerprint_cell(CELLS[key])
    report = gen_fingerprints.diff(MANIFEST["cells"][key], got)
    assert report is None, f"{key}: {report}"


class TestDiffReport:
    """The mismatch report names the first diverging block and channels."""

    BASE = {
        "ticks": 600,
        "scalars": "s0",
        "channels": {"time_s": "t", "pkg_w": "p", "core_w": "c"},
        "blocks": ["b0", "b1", "b2"],
    }

    def test_identical_reports_nothing(self):
        assert gen_fingerprints.diff(self.BASE, dict(self.BASE)) is None

    def test_names_first_block_and_channels(self):
        got = dict(self.BASE, blocks=["b0", "x1", "x2"], channels={"time_s": "t", "pkg_w": "P", "core_w": "C"})
        report = gen_fingerprints.diff(self.BASE, got)
        assert report == "first diverging block 1 (ticks 256-511); channels core_w, pkg_w"

    def test_length_change_and_scalars(self):
        got = dict(self.BASE, ticks=700, scalars="s1", blocks=["b0", "b1", "b2", "b3"])
        report = gen_fingerprints.diff(self.BASE, got)
        assert report == "first diverging block 3 (ticks 768-1023); ticks 600 -> 700; run scalars differ"

    def test_journal_digest_reported(self):
        expected = dict(self.BASE, journal="j0")
        report = gen_fingerprints.diff(expected, dict(self.BASE, journal="j1"))
        assert report == "grant journal differs"
