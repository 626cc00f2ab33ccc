"""Run README.md's command lines: its examples, and its table of refusals.

    python scripts/readme.py examples SRC OUT
    python scripts/readme.py refusals [SRC]

Each command line runs as ``python -W error::RuntimeWarning -m wavecrit.cli
<words> --quiet --out-dir DIR`` under this interpreter, with the wavecrit
package in SRC (PYTHONPATH) and stdin closed.

``examples`` runs every ``wavecrit`` line of the "Command line" section in
order: example k writes its files into OUT/k, and OUT/commands lists the
examples.  Two runs, of one tree or of two, compare with

    diff -r --exclude=manifest.json OUT1 OUT2

since every file but the timestamped manifest is deterministic.

``refusals`` re-renders the table between the lines <!-- refusals:begin -->
and <!-- refusals:end -->, whose first column is the list of refused command
lines (SRC defaults to src).  Each row holds the command, its exit code and
the stderr line that holds "error:" (a dash when there is none, as for a
check that fails and writes its report).  A new refusal is one row with its
command, followed by a re-render.  argparse words its usage errors
differently across Python versions, so a table rendered by one version may
differ from another's.  A refusal whose message depends on the machine
(physical memory) has no row.
"""
import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BEGIN, END = "<!-- refusals:begin -->", "<!-- refusals:end -->"


def run(line: str, src: str, out_dir, **kwargs) -> subprocess.CompletedProcess:
    """Run one README command line, whose words after ``wavecrit`` are its arguments."""
    words = line.split()[1:]
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "wavecrit.cli", *words,
         "--quiet", "--out-dir", str(out_dir)],
        stdin=subprocess.DEVNULL, env={**os.environ, "PYTHONPATH": src}, **kwargs)


def examples_of(text: str) -> list:
    """The ``wavecrit`` lines of the "Command line" section, up to the next ``## `` heading."""
    section = text.split("\n## Command line", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("wavecrit ")]


def examples(src: str, out: str) -> None:
    out = Path(out)
    lines = examples_of(README.read_text())
    if not lines:
        sys.exit(f"{README} has no command-line example")
    (out / "raw").mkdir(parents=True, exist_ok=True)
    (out / "commands").write_text("".join(line + "\n" for line in lines))
    for k, line in enumerate(lines, 1):
        print(line, flush=True)
        if run(line, src, out / "raw" / str(k)).returncode:
            sys.exit(f"example {k} failed: {line}")
        # the result directory is OUT/raw/k/<command>/<timestamp>; it becomes OUT/k
        (result,) = (out / "raw" / str(k)).glob("*/*")
        result.rename(out / str(k))
    shutil.rmtree(out / "raw")


def refusals(src: str) -> None:
    lines = README.read_text().splitlines(keepends=True)
    stripped = [line.rstrip("\n") for line in lines]
    if BEGIN not in stripped or END not in stripped:
        sys.exit(f"{README} has no {BEGIN} ... {END} block")
    begin, end = stripped.index(BEGIN), stripped.index(END)
    commands = [m[1] for m in
                (re.match(r"\| `(wavecrit [^`]*)`", line) for line in stripped[begin:end]) if m]
    table = ["| Command line | Exit | Message |\n", "| --- | --- | --- |\n"]
    with tempfile.TemporaryDirectory() as tmp:
        for line in commands:
            done = run(line, src, Path(tmp) / "out", stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True)
            message = next((m for m in done.stderr.splitlines() if "error:" in m), None)
            # a | inside a cell would end it
            cell = "-" if message is None else "`" + message.replace("|", "\\|") + "`"
            table.append(f"| `{line}` | {done.returncode} | {cell} |\n")
    README.write_text("".join(lines[:begin + 1] + table + lines[end:]))


def main() -> None:
    parser = argparse.ArgumentParser(description="Run README.md's command lines.")
    commands = parser.add_subparsers(dest="command", required=True)
    ex = commands.add_parser("examples", help="run every example into OUT/k")
    ex.add_argument("src")
    ex.add_argument("out")
    ref = commands.add_parser("refusals", help="re-render the table of refused command lines")
    ref.add_argument("src", nargs="?", default="src")
    args = parser.parse_args()
    if args.command == "examples":
        examples(args.src, args.out)
    else:
        refusals(args.src)


if __name__ == "__main__":
    main()
