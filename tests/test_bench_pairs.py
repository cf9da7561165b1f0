"""The seed list of ``scripts/bench_pairs.py`` is checked before any export."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "text, seeds",
    [("7", [7]), ("1-3,7", [1, 2, 3, 7]), ("0,2-4,10-11", [0, 2, 3, 4, 10, 11])],
)
def test_seed_lists_parse(bench_pairs, text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize(
    "text",
    ["", ",", "3,", "5-3", "3,3", "1-3,2", "7,3", "-1", "a", "1-", "1-2-3"],
)
def test_bad_seed_lists_are_refused_before_any_export(
    bench_pairs, monkeypatch, capsys, text
):
    exported = []

    def export(*args):  # stops a run that got this far
        exported.append(args)
        raise RuntimeError("exported")

    for name in ("export_commit", "export_working_tree"):
        monkeypatch.setattr(bench_pairs, name, export)
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--pr", "0", "--seeds", text])
    assert info.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert exported == []
