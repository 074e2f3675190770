"""The git stamp the benches put on ``benchmarks/history.jsonl`` rows.

``benchmarks/conftest.py:git_sha`` must credit a row to a commit only when
the tree is that commit: an edited tracked source file makes the stamp
``<sha>-dirty``, while the files the benches rewrite themselves (the
``BENCH_*.json`` artifacts and the history log) do not. The check runs a
copy of the conftest inside a scratch git repository, so it sees exactly
the layout of this one.
"""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None, reason="needs the git executable"
)


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=repo,
        capture_output=True,
        text=True,
        check=True,
        timeout=30,
    ).stdout.strip()


def test_git_sha_marks_only_tracked_source_edits_dirty(tmp_path):
    repo = tmp_path / "repo"
    bench = repo / "benchmarks"
    bench.mkdir(parents=True)
    (repo / "src").mkdir()
    shutil.copy(CONFTEST, bench / "conftest.py")
    (bench / "BENCH_x.json").write_text("{}\n")
    (bench / "history.jsonl").write_text('{"bench": "x"}\n')
    (repo / "src" / "mod.py").write_text("VALUE = 1\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "seed")
    head = git(repo, "rev-parse", "HEAD")

    spec = importlib.util.spec_from_file_location(
        "scratch_bench_conftest", bench / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BENCH_DIR == bench
    assert module.git_sha() == head

    # What a bench run rewrites, and an untracked file, keep the tree clean.
    (bench / "BENCH_x.json").write_text('{"rewritten": true}\n')
    with open(bench / "history.jsonl", "a") as log:
        log.write('{"bench": "x", "again": true}\n')
    (repo / "notes.txt").write_text("untracked\n")
    assert git(repo, "status", "--porcelain", "--untracked-files=no")
    assert module.git_sha() == head

    # A tracked source file outside benchmarks/ does not.
    (repo / "src" / "mod.py").write_text("VALUE = 2\n")
    assert module.git_sha() == f"{head}-dirty"
