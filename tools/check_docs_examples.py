#!/usr/bin/env python3
"""Smoke-check the fenced shell/python examples in README.md and docs/.

Documentation that drifts from the code is worse than no documentation:
this tool extracts every executable fenced code block (```bash / ```sh /
```python / ```py), rewrites it for a fast run, and executes it — so CI
fails when a documented flag, module path, or example stops working.

What is run, and how:

* Blocks run **per file, in order, in a shared scratch directory**, so a
  later command can consume an earlier one's output (the tracing examples
  read the trace the previous line produced).
* The scratch environment pins ``REPRO_SCALE=smoke`` and points
  ``REPRO_RESULTS_DIR`` at a copy of the committed ``benchmarks/results``
  records, so ``--save`` examples never clobber the repository and
  plotting examples find their inputs.  It does not turn the sanitizer on
  for every command: a sanitized fig09 smoke run takes about ten times as
  long as a plain one, and the runner's sanitized run has its own CI
  step.  A documented command that passes ``--sanitize`` still runs
  sanitized.
* Rewrites keep runtimes in seconds: explicit ``default``/``large``
  scales become ``smoke``, ``--all`` becomes a two-experiment selection,
  and the quickstart's key count is shrunk.  Inherently slow or
  environment-mutating commands (``pip``, ``pytest``, ``python
  benchmarks/...``, ``python setup.py``) are skipped, as are transcript
  blocks (lines starting with ``$`` show *output*, not commands to run).

Usage::

    python tools/check_docs_examples.py            # README.md + docs/*.md
    python tools/check_docs_examples.py --verbose  # echo every command
    python tools/check_docs_examples.py docs/runner.md
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Commands we never execute: slow, network-touching, or environment-
#: mutating.  Matched against the start of the (continuation-joined) line.
SKIP_PREFIXES = (
    "pip ",
    "pytest",
    "python -m pytest",
    "python setup.py",
    "python benchmarks/",
)

#: Fence languages treated as shell and as python.
SHELL_LANGS = {"bash", "sh", "shell", "console"}
PYTHON_LANGS = {"python", "py"}

#: Per-command wall-clock budget (seconds).
COMMAND_TIMEOUT = 600


def extract_blocks(path: Path) -> list[tuple[str, str]]:
    """Yield ``(language, body)`` for each fenced code block in ``path``."""
    blocks: list[tuple[str, str]] = []
    lang = None
    body: list[str] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped.startswith("```"):
            if lang is None:
                lang = stripped[3:].strip().lower()
            else:
                blocks.append((lang, "\n".join(body)))
                lang, body = None, []
            continue
        if lang is not None:
            body.append(line)
    return blocks


def is_transcript(body: str) -> bool:
    """A session transcript (prompts + captured output), not commands."""
    return any(
        line.lstrip().startswith("$") or line.strip() == "^C"
        for line in body.splitlines()
    )


def shell_commands(body: str) -> list[str]:
    """Split a shell block into runnable commands (joining continuations)."""
    commands: list[str] = []
    pending = ""
    for line in body.splitlines():
        line = pending + line.rstrip()
        if line.endswith("\\"):
            pending = line[:-1]
            continue
        pending = ""
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        commands.append(stripped)
    return commands


def rewrite_shell(command: str) -> str | None:
    """Shrink a documented command to smoke size; None means skip it."""
    if command.startswith(SKIP_PREFIXES):
        return None
    command = re.sub(r"--scale (default|large|paper)", "--scale smoke", command)
    command = re.sub(
        r"REPRO_SCALE=(default|large|paper)", "REPRO_SCALE=smoke", command
    )
    # A full sweep is minutes even at smoke scale; two experiments prove
    # the flags work.
    command = re.sub(r"--all\b", "--exp fig02 --exp table3", command)
    # Documented fuzz budgets are real-session sized; seconds prove the CLI.
    command = re.sub(r"--budget \S+", "--budget 3", command)
    # Oracle examples document CI-gate sizes; tiny inputs prove the paths.
    if "repro.verify" in command:
        command = re.sub(r"--n \d+", "--n 60", command)
    # Examples live in the repo, not the scratch dir; shrink their input.
    command = re.sub(
        r"python examples/(\w+\.py)(?! \d)",
        lambda m: f"python {REPO_ROOT / 'examples' / m.group(1)} 2000",
        command,
    )
    # Tool scripts live in the repo too; they read the repo's BENCH files.
    command = re.sub(
        r"python tools/(\w+\.py)",
        lambda m: f"python {REPO_ROOT / 'tools' / m.group(1)}",
        command,
    )
    return command


def rewrite_python(body: str) -> str:
    """Shrink a documented python example to smoke size."""
    return body.replace("20_000", "2_000")


def check_file(path: Path, verbose: bool) -> list[str]:
    """Run every example in ``path``; returns failure descriptions."""
    failures: list[str] = []
    blocks = [
        (lang, body) for lang, body in extract_blocks(path)
        if lang in SHELL_LANGS | PYTHON_LANGS and not is_transcript(body)
    ]
    if not blocks:
        return failures

    with tempfile.TemporaryDirectory(prefix="docs-smoke-") as scratch:
        scratch_path = Path(scratch)
        results_dir = scratch_path / "results"
        shutil.copytree(REPO_ROOT / "benchmarks" / "results", results_dir)
        env = dict(os.environ)
        env.pop("REPRO_FAULT", None)
        env.pop("REPRO_TRACE_DIR", None)
        env.update(
            PYTHONPATH=str(REPO_ROOT / "src"),
            REPRO_SCALE="smoke",
            REPRO_RESULTS_DIR=str(results_dir),
        )

        def run(argv: list[str] | str, shell: bool, label: str) -> None:
            if verbose:
                print(f"  $ {label}")
            try:
                proc = subprocess.run(
                    argv, shell=shell, cwd=scratch_path, env=env,
                    capture_output=True, text=True, timeout=COMMAND_TIMEOUT,
                )
            except subprocess.TimeoutExpired:
                failures.append(f"{path}: TIMEOUT: {label}")
                return
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
                failures.append(
                    f"{path}: exit {proc.returncode}: {label}\n    "
                    + "\n    ".join(tail)
                )

        for lang, body in blocks:
            if lang in PYTHON_LANGS:
                script = scratch_path / "_doc_example.py"
                script.write_text(rewrite_python(body), encoding="utf-8")
                run([sys.executable, str(script)], shell=False,
                    label=f"python <<{lang} block>>")
                continue
            for command in shell_commands(body):
                rewritten = rewrite_shell(command)
                if rewritten is None:
                    if verbose:
                        print(f"  - skipped: {command}")
                    continue
                run(rewritten, shell=True, label=rewritten)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Execute the fenced examples in the documentation."
    )
    parser.add_argument(
        "files", nargs="*", type=Path,
        help="markdown files to check (default: README.md and docs/*.md)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    files = args.files or [
        REPO_ROOT / "README.md",
        *sorted((REPO_ROOT / "docs").glob("*.md")),
    ]
    all_failures: list[str] = []
    for path in files:
        print(f"checking {path.relative_to(REPO_ROOT) if path.is_absolute() else path}")
        all_failures.extend(check_file(path, verbose=args.verbose))

    if all_failures:
        print(f"\n{len(all_failures)} documentation example(s) FAILED:")
        for failure in all_failures:
            print(f"- {failure}")
        return 1
    print("\nall documentation examples passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
