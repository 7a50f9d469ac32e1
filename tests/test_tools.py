"""Tests for the scripts under ``tools/`` (loaded by path: not a package)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perf_pairs_dry_run_alternates_which_side_goes_first(capsys, tmp_path):
    """The schedule byte-compiles both checkouts, then runs both sides on
    every seed with identical benchmark settings, the change first on odd
    seeds and the parent first on even ones, writes under the git-ignored
    perf/out/ — and ``--dry-run`` only prints it."""
    pairs = _load("perf_pairs")
    arguments = ["--parent", str(tmp_path), "--seeds", "1", "2", "3",
                 "--workload", "binary_hash", "--claim", "binary_hash/queries_per_s"]
    assert pairs.main(["--dry-run", *arguments]) == 0
    compiles, lines = [], capsys.readouterr().out.splitlines()
    while lines[0].startswith("compile "):
        compiles.append(lines.pop(0))
    assert compiles == [
        f"compile parent: cd {tmp_path} && python3 -m compileall -q src perf",
        f"compile change: cd {ROOT} && python3 -m compileall -q src perf",
    ]
    assert [tuple(line.split(":")[0].split()[1:]) for line in lines] == [
        ("1", "change"), ("1", "parent"),
        ("2", "parent"), ("2", "change"),
        ("3", "change"), ("3", "parent"),
    ]
    out = ROOT / "perf" / "out" / "pairs"
    for line in lines:
        _, seed, side = line.split(":")[0].split()
        checkout = tmp_path if side == "parent" else ROOT
        assert f"cd {checkout} && python3 perf/run.py --seed {seed} --trace 0 " in line
        assert line.endswith(f"--out {out / side / seed} --workload binary_hash")
    assert not (out / "parent-tree").exists()  # nothing was checked out
