"""Byte-identity check of `faultlab pipeline` and `faultlab infer` between a
git revision and the working tree.

A change that is meant to leave every floating-point result alone must leave
every file these commands write, their exit codes, stdout and stderr
byte-identical. This script exports REV with `git archive` into a temporary
directory and, for each CONFIG, runs in a fresh directory

    python3 -m faultlab.cli pipeline [--config CONFIG] --out out
    python3 -m faultlab.cli gen --regime mixed [--config CONFIG] --out mixed.csv
    python3 -m faultlab.cli infer --models out/models/VARIANT --in mixed.csv \
        --out pred_VARIANT.csv                      (for each VARIANT trained)

once with that tree's sources and once with the working tree's. It then
compares the two directories file by file, the exit codes, and the joined
stdout and stderr. The word `default` in place of a config path runs the
default config. Each tree's root path is replaced by `<tree>` in stderr
before it is compared, so that warnings naming a source file compare equal.
Exit code 0 means no difference, 1 a difference, 2 a usage error or a failed
export.

    python3 scripts/pipeline_oracle.py --rev HEAD configs/quick.json default
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> None:
    """Write the files of `rev` under `dest`."""
    proc = subprocess.Popen(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    if proc.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_commands(tree: Path, config: Path | None, work: Path) -> tuple[list[int], bytes, bytes]:
    """The commands above with `tree`'s sources, inside `work`; returns their
    exit codes and their joined stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cfg = [] if config is None else ["--config", str(config)]
    codes, stdout, stderr = [], b"", b""

    def run(*args: str) -> None:
        nonlocal stdout, stderr
        proc = subprocess.run([sys.executable, "-m", "faultlab.cli", *args], cwd=work,
                              env=env, capture_output=True)
        codes.append(proc.returncode)
        stdout += proc.stdout
        stderr += proc.stderr.replace(str(tree).encode(), b"<tree>")

    run("pipeline", *cfg, "--out", "out")
    run("gen", "--regime", "mixed", *cfg, "--out", "mixed.csv")
    models = work / "out" / "models"
    for variant in sorted(p.name for p in models.iterdir()) if models.is_dir() else []:
        run("infer", "--models", f"out/models/{variant}", "--in", "mixed.csv",
            "--out", f"pred_{variant}.csv")
    return codes, stdout, stderr


def tree_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def compare(base: tuple, new: tuple, base_work: Path, new_work: Path) -> list[str]:
    """Every difference between two runs, as one line each."""
    diffs = []
    for what, a, b in zip(("exit codes", "stdout", "stderr"), base, new):
        if a != b:
            diffs.append(f"{what} differ")
    files_a, files_b = tree_files(base_work), tree_files(new_work)
    for name in sorted(set(files_a) | set(files_b)):
        if name not in files_b:
            diffs.append(f"only in the revision's output: {name}")
        elif name not in files_a:
            diffs.append(f"only in the working tree's output: {name}")
        elif files_a[name] != files_b[name]:
            diffs.append(f"differs: {name}")
    if not files_a and not files_b:
        diffs.append("neither run wrote a file")
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="+", metavar="CONFIG",
                    help="run config JSON, or `default` for the default config")
    ap.add_argument("--rev", default="HEAD", help="git revision to compare against")
    args = ap.parse_args(argv)

    configs = [None if c == "default" else Path(c).resolve() for c in args.configs]
    for c in configs:
        if c is not None and not c.is_file():
            print(f"pipeline_oracle: no such config: {c}", file=sys.stderr)
            return 2
    failed = False
    with tempfile.TemporaryDirectory(prefix="pipeline_oracle_") as tmp:
        base_tree = Path(tmp) / "rev"
        base_tree.mkdir()
        try:
            export(args.rev, base_tree)
        except (RuntimeError, tarfile.TarError) as exc:
            print(f"pipeline_oracle: {exc}", file=sys.stderr)
            return 2
        for n, config in enumerate(configs):
            label = "default" if config is None else str(config)
            runs = {}
            for side, tree in (("rev", base_tree), ("work", REPO)):
                work = Path(tmp) / f"{side}_{n}"
                work.mkdir()
                runs[side] = (run_commands(tree, config, work), work)
            (base, base_work), (new, new_work) = runs["rev"], runs["work"]
            diffs = compare(base, new, base_work, new_work)
            n_files = len(tree_files(new_work))
            if diffs:
                failed = True
                print(f"DIFFER {label}: " + "; ".join(diffs))
            else:
                print(f"SAME   {label}: exit codes {new[0]}, {n_files} files, "
                      f"{len(new[1])} B stdout, {len(new[2])} B stderr")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
