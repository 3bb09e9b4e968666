"""Regenerate the golden corpus from its configs, or check a program on it.

    PYTHONPATH=src python3 tests/golden/regen.py
    python3 tests/golden/regen.py --check qpfix

Each case directory under tests/golden is named ``<command>-<case>`` and
holds a ``config.json``; this script runs it through ``cli.main`` and
rewrites the files the run writes (``report.json``, and ``trace.csv`` for
``solve``) and its ``exit_code``, listing those whose bytes changed.
``compare`` runs with ``--seed 1``.

``--check PROG...`` instead runs each case as a subprocess, ``PROG...``
followed by the command line ``cli.main`` gets (for instance the installed
``qpfix`` script, or ``python3 -m qpfix.cli``), lists every case whose exit
code or files differ from the expected ones, and exits 1 if any does.

The corpus pins every byte a command writes: review the diff of a
regeneration as a change in what the program reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Sequence

HERE = Path(__file__).resolve().parent
COMPARE_SEED = "1"


def cases() -> list[Path]:
    return sorted(p for p in HERE.iterdir() if (p / "config.json").is_file())


def expected_files(case: Path) -> list[str]:
    """The names of the files the case's run writes."""
    return sorted(p.name for p in case.iterdir() if p.name not in ("config.json", "exit_code"))


def run_case(case: Path, work: Path, prog: Sequence[str] = ()) -> tuple[int, Path]:
    """Run case from a copy of its config in work, with output_dir set to
    work/out, through cli.main or, given prog, as the subprocess prog plus
    main's command line: its exit code and that output_dir."""
    cfg = json.loads((case / "config.json").read_text())
    out = work / "out"
    cfg["output_dir"] = str(out)
    config = work / "config.json"
    config.write_text(json.dumps(cfg))
    command = case.name.rsplit("-", 1)[0]
    argv = [command, "--config", str(config)]
    if command == "compare":
        argv += ["--seed", COMPARE_SEED]
    if prog:
        return subprocess.run([*prog, *argv], cwd=work).returncode, out
    from qpfix import cli

    return cli.main(argv), out


def differences(case: Path, code: int, out: Path) -> list[str]:
    """How a run of case that exited with code and wrote into out differs
    from the expected exit code and files: empty when it does not."""
    found = [] if code == int((case / "exit_code").read_text()) else [f"exit code {code}"]
    written = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if written != expected_files(case):
        found.append(f"wrote {written}, expected {expected_files(case)}")
    found += [f"{name} differs" for name in written
              if (case / name).is_file() and (out / name).read_bytes() != (case / name).read_bytes()]
    return found


def check(prog: Sequence[str]) -> int:
    """Run every case through prog: 0 when each matches, else 1."""
    failed = 0
    for case in cases():
        with tempfile.TemporaryDirectory() as tmp:
            found = differences(case, *run_case(case, Path(tmp), prog))
        print(f"{case.name}: {'; '.join(found) or 'ok'}", file=sys.stderr)
        failed += bool(found)
    return 1 if failed else 0


def main() -> None:
    """Rewrite every case, and list the files whose bytes changed."""
    for case in cases():
        before = {p.name: p.read_bytes() for p in case.iterdir() if p.name != "config.json"}
        for name in expected_files(case):
            (case / name).unlink()
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_case(case, Path(tmp))
            for written in sorted(out.iterdir()):
                shutil.copyfile(written, case / written.name)
        (case / "exit_code").write_text(f"{code}\n")
        after = {p.name: p.read_bytes() for p in case.iterdir() if p.name != "config.json"}
        changed = sorted(n for n in before.keys() | after.keys() if before.get(n) != after.get(n))
        print(f"{case.name}: exit {code}" + (f", changed {changed}" if changed else ""),
              file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check"] and sys.argv[2:]:
        sys.exit(check(sys.argv[2:]))
    main()
