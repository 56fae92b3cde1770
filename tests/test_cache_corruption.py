"""Cache-corruption resilience: a damaged workspace cache is always
rejected with :class:`WorkspaceCacheError` — never a raw pickle error,
``EOFError``, or ``KeyError`` — and the CLI turns that into exit 2 with
a readable message.

Corruption is injected byte-by-byte with the fault harness's
:func:`repro.testing.faults.corrupt_file` / :func:`truncate_file`, so
the loader's hardening is asserted at many positions (header, middle,
tail), not just for an unreadable file.
"""

from __future__ import annotations

import json
import pickle
import shutil
from pathlib import Path

import pytest

from repro.bgp.configjson import config_to_json
from repro.bgp.topology import Edge
from repro.cli import main
from repro.core.properties import SafetyProperty
from repro.core.workspace import (
    CACHE_FORMAT,
    Workspace,
    WorkspaceCacheError,
    WorkspaceCacheMismatch,
)
from repro.lang.predicates import TruePred
from repro.testing.faults import corrupt_file, truncate_file
from repro.workloads.figure1 import build_figure1


@pytest.fixture(scope="module")
def saved_cache(tmp_path_factory):
    """A real saved workspace cache plus the config it was saved for."""
    tmp = tmp_path_factory.mktemp("cachesrc")
    config = build_figure1()
    prop = SafetyProperty(location=Edge("R2", "ISP2"), predicate=TruePred(), name="t")
    with Workspace(config) as ws:
        ws.verify(prop, ws.invariants())
        ws.save(tmp / "workspace.lyc")
    return tmp / "workspace.lyc", config


def _damaged_copy(saved: Path, tmp_path: Path, damage) -> Path:
    copy = tmp_path / saved.name
    shutil.copy(saved, copy)
    damage(copy)
    return copy


# Relative positions across the whole file: header, early body, middle,
# tail, and the last byte.
FLIP_POSITIONS = [0.0, 0.001, 0.25, 0.5, 0.75, 0.999, -1]


@pytest.mark.parametrize("position", FLIP_POSITIONS)
def test_bit_flip_anywhere_raises_cache_error(saved_cache, tmp_path, position):
    saved, config = saved_cache
    size = saved.stat().st_size
    offset = position if position == -1 else int(size * position)
    copy = _damaged_copy(saved, tmp_path, lambda p: corrupt_file(p, offset))
    with pytest.raises(WorkspaceCacheError):
        Workspace.load(copy, config=config)


@pytest.mark.parametrize("keep_fraction", [0.0, 0.001, 0.1, 0.5, 0.99])
def test_truncation_anywhere_raises_cache_error(saved_cache, tmp_path, keep_fraction):
    saved, config = saved_cache
    keep = int(saved.stat().st_size * keep_fraction)
    copy = _damaged_copy(saved, tmp_path, lambda p: truncate_file(p, keep))
    with pytest.raises(WorkspaceCacheError):
        Workspace.load(copy, config=config)


def test_unreadable_path_raises_cache_error(tmp_path):
    with pytest.raises(WorkspaceCacheError, match="cannot read"):
        Workspace.load(tmp_path / "does-not-exist.lyc")


def test_valid_pickle_wrong_shape_raises_cache_error(tmp_path):
    # A structurally valid pickle that is not a cache dict at all.
    target = tmp_path / "workspace.lyc"
    target.write_bytes(pickle.dumps(["not", "a", "cache"]))
    with pytest.raises(WorkspaceCacheError, match="not a workspace cache"):
        Workspace.load(target)


def test_valid_pickle_missing_keys_raises_cache_error(tmp_path):
    # Parses, has a format field, but the payload shape is wrong: the
    # loader's interpretation hardening must wrap the KeyError.
    target = tmp_path / "workspace.lyc"
    target.write_bytes(pickle.dumps({"format": CACHE_FORMAT}))
    with pytest.raises(WorkspaceCacheError, match="corrupt"):
        Workspace.load(target)


def test_future_format_raises_cache_error(tmp_path):
    target = tmp_path / "workspace.lyc"
    target.write_bytes(pickle.dumps({"format": CACHE_FORMAT + 1}))
    with pytest.raises(WorkspaceCacheError, match="format"):
        Workspace.load(target)


def test_previous_format_raises_cache_error(tmp_path):
    # A format-3 cache (with the retired learnt-clause section) must be
    # rejected readably, not loaded with that section silently ignored.
    target = tmp_path / "workspace.lyc"
    target.write_bytes(pickle.dumps({"format": CACHE_FORMAT - 1}))
    with pytest.raises(WorkspaceCacheError, match="format"):
        Workspace.load(target)


# ---------------------------------------------------------------------------
# A bulkier cache: flips deep inside real tracker state must be caught
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wan_cache(tmp_path_factory):
    """A saved cache holding every WAN 2x3 ip-reuse property's outcomes."""
    from repro.workloads.wan import build_wan
    from repro.workloads.wan_properties import ip_reuse_safety_problem

    tmp = tmp_path_factory.mktemp("wancache")
    wan = build_wan(regions=2, routers_per_region=3)
    problems = [ip_reuse_safety_problem(wan, r) for r in range(wan.regions)]
    with Workspace(wan.config, ghosts=tuple(p.ghost for p in problems)) as ws:
        for problem in problems:
            for prop in problem.properties:
                ws.verify(prop, problem.invariants)
        ws.save(tmp / "workspace.lyc")
    return tmp / "workspace.lyc", wan.config


@pytest.mark.parametrize("position", [0.0, 0.25, 0.5, 0.75, 0.999])
def test_bit_flip_across_wan_cache_raises_cache_error(wan_cache, tmp_path, position):
    saved, config = wan_cache
    offset = int(saved.stat().st_size * position)
    copy = _damaged_copy(saved, tmp_path, lambda p: corrupt_file(p, offset))
    with pytest.raises(WorkspaceCacheError):
        Workspace.load(copy, config=config)


@pytest.mark.parametrize("keep_fraction", [0.1, 0.5, 0.9, 0.999])
def test_truncation_across_wan_cache_raises_cache_error(
    wan_cache, tmp_path, keep_fraction
):
    saved, config = wan_cache
    keep = int(saved.stat().st_size * keep_fraction)
    copy = _damaged_copy(saved, tmp_path, lambda p: truncate_file(p, keep))
    with pytest.raises(WorkspaceCacheError):
        Workspace.load(copy, config=config)


def test_tampered_state_fails_integrity_check(saved_cache, tmp_path):
    # A state that still unpickles into a valid shape (here: every entry
    # dropped) must be caught by the header digest, not loaded.
    saved, config = saved_cache
    with open(saved, "rb") as handle:
        header = pickle.load(handle)
        state = pickle.load(handle)
    state["entries"] = []
    target = tmp_path / "workspace.lyc"
    target.write_bytes(pickle.dumps(header) + pickle.dumps(state))
    with pytest.raises(WorkspaceCacheError, match="integrity check failed"):
        Workspace.load(target, config=config)


def test_wrong_shape_payload_raises_cache_error(saved_cache, tmp_path):
    # A well-formed pickle of the wrong type after the header (its sha256
    # recomputed to match) exercises the shape check, not the digest check.
    import hashlib

    saved, config = saved_cache
    header = pickle.loads(saved.read_bytes())
    payload = pickle.dumps(["not", "a", "dict"])
    header["sha256"] = hashlib.sha256(payload).hexdigest()
    target = tmp_path / "workspace.lyc"
    target.write_bytes(pickle.dumps(header) + payload)
    with pytest.raises(WorkspaceCacheError, match="corrupt"):
        Workspace.load(target, config=config)


def test_mismatch_is_a_cache_error_subtype():
    # CLI error handling catches WorkspaceCacheError; the mismatch class
    # must stay inside that hierarchy (and inside ValueError for main()).
    assert issubclass(WorkspaceCacheMismatch, WorkspaceCacheError)
    assert issubclass(WorkspaceCacheError, ValueError)


# ---------------------------------------------------------------------------
# CLI: corrupt caches exit 2 with a readable error
# ---------------------------------------------------------------------------

SPEC = {
    "safety": [
        {
            "name": "trivial",
            "location": "R2->ISP2",
            "predicate": {"kind": "true"},
            "invariants": {"default": {"kind": "true"}, "overrides": {}},
        }
    ]
}


@pytest.fixture
def cli_setup(tmp_path):
    config = build_figure1()
    (tmp_path / "base.json").write_text(config_to_json(config))
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    cache_dir = tmp_path / "cachedir"
    return {
        "base": str(tmp_path / "base.json"),
        "spec": str(tmp_path / "spec.json"),
        "cache": str(cache_dir),
        "cache_file": cache_dir / "workspace.lyc",
    }


@pytest.mark.parametrize(
    "damage",
    [lambda p: corrupt_file(p, 0), lambda p: truncate_file(p, 16)],
    ids=["bit-flip", "truncate"],
)
def test_cli_corrupt_cache_exits_2(cli_setup, capsys, damage):
    s = cli_setup
    assert main(["verify", s["base"], s["spec"], "--cache", s["cache"]]) == 0
    capsys.readouterr()
    damage(s["cache_file"])
    code = main(["verify", s["base"], s["spec"], "--cache", s["cache"]])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
